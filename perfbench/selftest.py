"""Self-test of the benchmark, on tiny versions of every workload.

    python3 perfbench/selftest.py

Checks that
- an untraced run of each workload passes its output checks and emits every
  end-to-end metric named in BENCHMARK.json, with the unit named there and a
  positive finite value;
- a traced run emits every per-layer metric with its unit, and two traced runs
  of the same seed give identical counts;
- outside a tclgrid source checkout (only BENCHMARK.json and perfbench/), the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str, positive: bool) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(names))} do not match BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got['unit']!r}, declared {m['unit']!r}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {value!r}")
        elif positive and value <= 0:
            problems.append(f"{label}: {m['name']} = {value!r} is not positive")
    return problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        plain = result_of(workload, 0)
        problems += check_metrics(plain, declared["end_to_end"], f"{workload} untraced", True)
        first, second = result_of(workload, 1), result_of(workload, 1)
        problems += check_metrics(first, declared["per_layer"], f"{workload} traced", False)
        for name, m in first["metrics"].items():
            if not name.endswith("_s") and m != second["metrics"].get(name):
                problems.append(f"{workload}: count {name} differs between two traced runs")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "desk-deterministic", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
