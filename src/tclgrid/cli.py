"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numeric/simulation error,
4 certification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


# The CSV writers build CHUNK_ROWS lines at a time as a uint8 matrix, one row
# of cells per line, so their memory does not grow with the table. Each cell
# pads to its column's width with PAD, a byte no UTF-8 text holds, which the
# writer drops. A %.17g cell's digits come from exact IEEE products and rint
# alone (float_cells), so they are the same on every host.
CHUNK_ROWS = 1024
PAD = np.uint8(255)
_POW10 = np.array([float(10**k) for k in range(23)])  # each one exact
_SPLIT = 134217729.0  # Veltkamp's 2**27 + 1
_POW_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW_LO = _POW10 - _POW_HI
# A %.17g cell is 48 bytes, 6 uint64: the sign, "0.000" (the start of a fixed
# cell below 1), the first digit and a point; the other 16 digits, each with a
# slot for a point after it; "e-0", a digit and PAD. Its first word by sign
# and first digit, at 10 sign + digit:
_HEADS = np.frombuffer(b"".join(b"%c0.000%d." % (s, d) for s in b"\xff-" for d in range(10)), np.uint64)
_OFFSETS = np.arange(0, 40000, 10000)[:, None]  # 10000 j: group j in the last-digit table


def _float_templates(e, last):
    """Float cells for the decimal exponent e (-6..16) and the index of the
    last non-zero digit: PAD where '%.17g' prints nothing, and 0 where it
    prints the sign, a digit, a point or the exponent, to be filled in by |."""
    keep = np.zeros(np.broadcast(e, last).shape + (48,), bool)
    keep[..., 0] = True
    exp = e < -4
    np.less_equal([1, 1, 2, 3, 4], np.where(exp, 0, -e)[..., None], out=keep[..., 1:6])
    digit = np.arange(17)
    np.less_equal(digit, np.maximum(last, e)[..., None], out=keep[..., 6:40:2])
    point = np.where(exp, 0, e)  # the digit the point follows, if any
    np.equal(digit, np.where(last > point, point, -1)[..., None], out=keep[..., 7:40:2])
    keep[..., 40:44] = exp[..., None]
    return np.where(keep, 0, PAD)


@functools.cache
def _tables():
    """The tables of float_cells, built at the first CSV write, so that a
    command that writes none does not build them:
    - "d.d.d.d." for the four digits of each group g = 0..9999, one uint64;
    - at 10000 j + g: the index among a float cell's digits 1..16 of the
      last non-zero digit of g as their group j, or 0 if g is 0;
    - at 17 (e + 6) + last: the cell's template, its exponent filled in."""
    groups = np.empty((10, 10, 10, 10, 4), np.uint16)
    last = np.uint8(0)  # the index (1..4) of the last non-zero digit
    for i in range(4):
        shape = (10,) + (1,) * (3 - i)
        groups[..., i] = np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.", np.uint16).reshape(shape)
        last = np.where(np.arange(10).reshape(shape) > 0, np.uint8(i + 1), last)
    last = last.ravel()
    lasts = np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.uint8)[:, None], 0)
    templates = _float_templates(np.arange(-6, 17)[:, None], np.arange(17))
    templates[..., 40:43] |= np.frombuffer(b"e-0", np.uint8)
    templates[..., 43] |= (48 - np.arange(-6, 17)).astype(np.uint8)[:, None]
    return groups.view(np.uint64).ravel(), lasts.ravel(), templates.reshape(-1, 48).view(np.uint64)


def _exact_product(a, k):
    """a * 10**k as p + err, two doubles that sum to it exactly (Dekker's
    two-product over Veltkamp's split; no overflow or underflow for
    1e-7 <= a < 1e18)."""
    p = a * np.take(_POW10, k)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = np.take(_POW_HI, k), np.take(_POW_LO, k)
    return p, a_hi * b_hi - p + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo


def _groups(v):
    """The four 4-digit groups of integers in [0, 1e16), one row each, the
    highest first."""
    groups = np.empty((4, v.size), np.intp)
    high = v // 10**8
    for row, half in ((0, high), (2, v - high * 10**8)):
        np.floor_divide(half, 10**4, out=groups[row])
        np.subtract(half, groups[row] * 10**4, out=groups[row + 1])
    return groups


def _texts(texts):
    """Cells of the UTF-8 encoded strings, as wide as the longest."""
    raw = [t.encode() for t in texts]
    width = max(map(len, raw), default=0)
    cells = np.frombuffer(b"".join(b.ljust(width, b"\xff") for b in raw), np.uint8)
    return cells.reshape(len(raw), width)


def _patch(cells, rows, texts):
    """The cells with those of the given rows replaced by the texts, widened
    to the longest text if need be."""
    fix = _texts(texts)
    grow = fix.shape[1] - cells.shape[1]
    if grow > 0:
        cells = np.hstack((cells, np.full((len(cells), grow), PAD)))
    cells[rows] = PAD
    cells[rows, : fix.shape[1]] = fix
    return cells


def float_cells(x):
    """The cells of '%.17g' % v for each double v of x.

    The digits are M = |v| 10**k rounded half to even, with k = 16 - e for
    the decimal exponent e, so that 1e16 <= M < 1e17. floor(log10 |v|) only
    estimates e; one test of the exact product p + err against 1e16 and 1e17
    corrects it. Then p >= 2**53 is an even integer, so M = p + rint(err).
    A zero prints as its sign and 0; any other cell with e outside [-6, 16]
    (|v| below about 1e-6 or from 1e17 up, inf or nan) is '%.17g' % v itself.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    ok = (a >= 1e-7) & (a < 1e18)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -6, 16, out=e)
    p, err = _exact_product(a, 16 - e)
    # p - 1e16 is exact near 1e16 and dwarfs err elsewhere; so for 1e17
    up = p - 1e17 + err >= 0
    down = p - 1e16 + err < 0
    redo = np.flatnonzero(up | down)
    if redo.size:
        e[redo] += up[redo].astype(np.intp) - down[redo]
        p[redo], err[redo] = _exact_product(a[redo], np.clip(16 - e[redo], 0, 22))
    m = p.astype(np.int64) + np.rint(err).astype(np.int64)
    ok &= (e >= -6) & (e <= 16) & (m < 10**17)  # and no carry to 18 digits
    m *= ok  # a zero prints its sign and the first digit, 0
    e *= ok
    bad = np.flatnonzero(~ok & (x != 0))
    first = m // 10**16
    groups = _groups(m - first * 10**16)
    words, lasts, templates = _tables()
    last = np.maximum.reduce(np.take(lasts, groups + _OFFSETS))
    # a PAD byte stays PAD under |, a 0 byte takes the printed one
    cells = np.take(templates, 17 * (e + 6) + last, axis=0)
    cells[:, 0] |= np.take(_HEADS, first + 10 * np.signbit(x))
    for j, word in enumerate(np.take(words, groups), 1):
        cells[:, j] |= word
    cells = cells.view(np.uint8)
    if bad.size:
        return _patch(cells, bad, ["%.17g" % v for v in x[bad].tolist()])
    return cells


def int_cells(v, cells):
    """The cells of '%d' % i for each i of v, given those of '%.17g' % i:
    the same for integers whose doubles are exact."""
    exact = (v >= -(2**53)) & (v <= 2**53) if v.dtype.kind in "biu" else np.zeros(len(v), bool)
    bad = np.flatnonzero(~exact)
    return _patch(cells, bad, ["%d" % i for i in v[bad].tolist()]) if bad.size else cells


def text_cells(items):
    """The cells of '%s' % s for each s of items, from one encoding of each
    distinct s."""
    index = {s: i for i, s in enumerate(dict.fromkeys(items))}
    ids = np.fromiter(map(index.__getitem__, items), np.intp, len(items))
    return _texts(map(str, index))[ids]


def _lines(specs, chunk):
    """The lines of the chunk, one row of cells each; its %.17g and %d
    columns share one float_cells call."""
    n = len(chunk[0])
    numbers = [np.asarray(c) for s, c in zip(specs, chunk) if s != "%s"]
    if numbers:
        cells = float_cells(np.column_stack(numbers).ravel()).reshape(n, -1, 48)
        numbers = iter(zip(numbers, cells.swapaxes(0, 1)))
    parts = []
    comma = np.full((n, 1), ord(","), np.uint8)
    for spec, col in zip(specs, chunk):
        if spec == "%s":
            cells = text_cells(col)
        else:
            v, cells = next(numbers)
            cells = int_cells(v, cells) if spec == "%d" else cells
        parts += [cells, comma]
    out = np.hstack(parts)
    out[:, -1] = ord("\n")
    return out


def write_rows(path: Path, header: str, row: str, *columns) -> None:
    """Write the header line, then one line per entry of the columns: the
    bytes of row % entry, where row joins %.17g, %d and %s specs by commas
    and ends in a newline."""
    specs = row[:-1].split(",")
    rows = min(map(len, columns))
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, rows, CHUNK_ROWS):
            chunk = [col[start : min(start + CHUNK_ROWS, rows)] for col in columns]
            fh.write(_lines(specs, chunk).tobytes().translate(None, b"\xff"))


def write_trace_csv(tr: Trace, path: Path) -> None:
    n = tr.x_hat.shape[1]
    x_hat = [f"x_hat_{i}" for i in range(n)]
    header = ",".join(["t", "jumps", "omega", *x_hat, "d_s", "on_fraction"])
    row = "%.17g,%d" + ",%.17g" * (n + 3) + "\n"
    write_rows(path, header, row, tr.times, tr.jumps, tr.omega, *tr.x_hat.T, tr.d_s, tr.on_fraction)


def write_switch_log_csv(tr: Trace, path: Path) -> None:
    write_rows(
        path, "t,load,new_sigma,cause", "%.17g,%d,%d,%s\n", tr.switch_times,
        tr.switch_loads, tr.switch_new_sigma, tr.switch_causes,
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


# the run settings a command line may override; the design is set by the
# document alone, so certify and run of one document see one design
OVERRIDES = ("seed", "horizon", "scheme")


def _load(path: str, args: argparse.Namespace) -> ScenarioFile:
    sf = load_scenario_file(path)
    given = {name: getattr(args, name, None) for name in OVERRIDES}
    changes = {name: v for name, v in given.items() if v is not None}
    if "scheme" in changes:
        changes["scheme"] = parse_scheme(changes["scheme"])
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
            run.trace.times, run.trace.on_fraction,
        )
    peaks = [run.metrics.peak_abs_omega for run in runs.values()]
    write_rows(out_dir / "comparison.csv", "scheme,peak_abs_omega_hz", "%s,%.17g\n", list(runs), peaks)
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
