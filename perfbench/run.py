"""tclgrid benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload desk-deterministic --seed 1 --seconds 20 --trace 0

Builds the workload's scenario files from the shipped scenario and the seed,
then runs repeats closed loop: one caller, each repeat a fresh
single-threaded process (BLAS and OpenMP pinned to one thread) that runs the
workload's CLI commands, and the next repeat starts only after the previous
one has ended. Repeats continue until --seconds have passed.

--trace 0 reports the end-to-end metrics: medians over the repeats, each
repeat on its own input variant drawn from the seed. Times are scaled to a
reference machine speed by the calibration kernel timed next to each repeat
(calibrate.py); the raw wall times stay in the result file.
--trace 1 alternates traced and untraced repeats on the seed's first variant
and reports the per-layer metrics of the traced ones plus the tracing
overhead; every count must repeat exactly across the traced repeats.

Every repeat's outputs are checked (see worker.py); a repeat that fails or
whose outputs are wrong counts as failed. The last line of standard output is
a JSON object {"correct", "attempted", "failed", "metrics"}; the full result,
with per-repeat records and the run environment, goes to
.perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
WORKER = Path(__file__).resolve().parent / "worker.py"

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "sim_rate": "s/s",
    "switch_cost_us": "us",
    "output_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "tclgrid.import_s": "s",
    "scenario.load_scenario_file_s": "s",
    "tcl.sample_population_s": "s",
    "tcl.sample_initial_states_s": "s",
    "design.allocate_thresholds_s": "s",
    "design.verify_design_condition_s": "s",
    "grid_model.one_norm_s": "s",
    "grid_model.one_norm_calls": "count",
    "grid_model.transition_s": "s",
    "grid_model.transition_calls": "count",
    "grid_model.cache_hit_ratio": "ratio",
    "hybrid_sim.simulate_s": "s",
    "hybrid_sim.simulate_self_s": "s",
    "hybrid_sim.steps": "count",
    "hybrid_sim.switches": "count",
    "hybrid_sim.jump_instants": "count",
    "hybrid_sim.steps_per_switch": "step/switch",
    "hybrid_sim.dwell_time_report_s": "s",
    "hybrid_sim.freq_bisections": "count",
    "hybrid_sim.bisections_per_step": "bisection/step",
    "hybrid_sim.rate_resamples": "count",
    "hybrid_sim.resamples_per_switch": "draw/switch",
    "stats.aggregate_demand_series_s": "s",
    "stats.series_events": "count",
    "stats.time_variance_s": "s",
    "stats.cross_term_oracle_s": "s",
    "cli.write_trace_csv_s": "s",
    "cli.trace_rows": "count",
    "cli.trace_bytes": "B",
    "cli.write_switch_log_csv_s": "s",
    "tracing_overhead_s": "s",
}

MIN_REPEATS = 3        # untraced repeats per measured run, whatever --seconds says
MIN_TRACED = 2         # traced repeats, so that counts can be compared
REPEAT_TIMEOUT = 120   # seconds before a repeat is killed and counted as failed
DEADLINE = 160         # start no repeat that could end after this many seconds


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git, which would search
    directories above the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
    }


def run_repeat(args, scenario: Path, run_dir: Path, index: int, traced: bool, env) -> dict:
    out = run_dir / f"r{index:03d}"
    out.mkdir(parents=True)
    run_id = f"{args.workload}-s{args.seed}-r{index}"
    with open(out / "worker.stdout", "w") as so, open(out / "worker.stderr", "w") as se:
        spawned_at = time.monotonic()
        try:
            rc = subprocess.run(
                [
                    sys.executable, str(WORKER),
                    "--workload", args.workload,
                    "--scale", args.scale,
                    "--scenario", str(scenario),
                    "--out", str(out),
                    "--spawned-at", repr(spawned_at),
                    "--run-id", run_id,
                    "--trace", str(int(traced)),
                ],
                env=env, stdout=so, stderr=se, timeout=REPEAT_TIMEOUT,
            ).returncode
        except subprocess.TimeoutExpired:
            rc = None
    record = {"run_id": run_id, "trace": int(traced), "returncode": rc}
    if (out / "record.json").is_file():
        record.update(json.loads((out / "record.json").read_text()))
    record["ok"] = rc == 0 and not record.get("errors")
    if not record["ok"] and not record.get("errors"):
        err = (out / "worker.stderr").read_text().strip().splitlines()
        record["errors"] = [err[-1] if err else f"worker exit code {rc}"]
    return record


def scale_times(records: list[dict]) -> None:
    """Scale each repeat's end-to-end times to the reference machine speed,
    measured by the calibration kernel the repeat ran right after its
    commands."""
    for r in records:
        if "calibration_s" not in r:
            continue
        f = calibrate.REFERENCE_S / r["calibration_s"]
        e = r["e2e"]
        r["speed_factor"] = f
        r["e2e_scaled"] = {
            "setup_s": e["setup_s"] * f,
            "run_s": e["run_s"] * f,
            "sim_rate": e["sim_rate"] / f,
            "switch_cost_us": e["switch_cost_us"] * f,
            "output_s": e["output_s"] * f,
            "peak_rss_mb": e["peak_rss_mb"],
        }


def summarize(records: list[dict], traced_run: bool) -> tuple[dict, int]:
    """Metrics of a measured run and the number of failed repeats."""
    scale_times(records)
    ok = [r for r in records if r["ok"]]
    failed = len(records) - len(ok)
    plain = [r for r in ok if not r["trace"]]
    if not traced_run:
        if not plain:
            return {}, failed
        return {
            name: {"value": statistics.median(r["e2e_scaled"][name] for r in plain), "unit": unit}
            for name, unit in E2E_UNITS.items()
        }, failed

    traced = [r for r in ok if r["trace"]]
    if not traced or not plain:
        return {}, failed
    first = traced[0]["layers"]
    for r in traced[1:]:
        differing = [
            k for k, v in r["layers"].items() if not k.endswith("_s") and v != first[k]
        ]
        if differing:
            r["ok"] = False
            r["errors"] = [f"counts differ from the first traced repeat: {differing}"]
            failed += 1
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "tracing_overhead_s":
            value = statistics.median(
                r["e2e_scaled"]["run_s"] for r in traced
            ) - statistics.median(r["e2e_scaled"]["run_s"] for r in plain)
        elif name.endswith("_s"):
            value = statistics.median(r["layers"][name] for r in traced)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--scale", choices=["full", "tiny"], default="full",
        help="tiny shrinks every workload for the self-test",
    )
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    shipped = ROOT / workloads.SHIPPED_SCENARIO
    package = ROOT / "src" / "tclgrid" / "__init__.py"
    missing = [str(p.relative_to(ROOT)) for p in (shipped, package) if not p.is_file()]
    if missing:
        print(f"perfbench: not a tclgrid source checkout, missing {missing}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-tiny" if args.scale == "tiny" else ""
    )
    run_dir = OUT_ROOT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = yaml.safe_load(shipped.read_text())

    def scenario(variant: int) -> Path:
        path = run_dir / f"scenario-v{variant}.yaml"
        if not path.is_file():
            doc = workloads.scenario_doc(base, args.workload, args.scale, args.seed, variant)
            path.write_text(yaml.safe_dump(doc, sort_keys=True))
        return path

    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(ROOT / "src")}
    # compile the package's bytecode and warm the file cache outside the timing
    subprocess.run([sys.executable, "-c", "import tclgrid.cli"], env=env, check=False,
                   timeout=REPEAT_TIMEOUT)

    started = time.monotonic()
    records: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        n_traced = sum(r["trace"] for r in records)
        n_plain = len(records) - n_traced
        enough = elapsed >= args.seconds and n_plain >= (1 if args.trace else MIN_REPEATS)
        if args.trace:
            enough = enough and n_traced >= MIN_TRACED
        if enough or elapsed + longest > DEADLINE:
            break
        traced = bool(args.trace) and n_traced <= n_plain
        # traced runs compare counts and overhead on one input; untraced runs
        # take a fresh input variant per repeat
        variant = 0 if args.trace else len(records)
        t = time.monotonic()
        records.append(run_repeat(args, scenario(variant), run_dir, len(records), traced, env))
        longest = max(longest, time.monotonic() - t)

    metrics, failed = summarize(records, bool(args.trace))
    attempted = len(records)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    full = {
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_callers": 1,
        "environment": environment(args.seed),
        "failed_frac": failed / attempted if attempted else 1.0,
        "result": result,
        "repeats": records,
    }
    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    for r in records:
        if not r["ok"]:
            print(f"{r['run_id']} failed: {'; '.join(r['errors'])}")
    for name, m in metrics.items():
        print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac: {full['failed_frac']:.6g} of {attempted} attempted")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
