"""The chunked CSV writers of tclgrid.cli print the bytes of the row-by-row %
writers in tests/reference.py: cell by cell, file by file, and with memory
that does not grow with the table."""

import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tclgrid import cli
from tclgrid.cli import main
from tclgrid.hybrid_sim import compare_schemes, simulate
from tclgrid.scenario import parse_scheme
from tests import reference
from tests.conftest import SHIPPED_SCENARIO

SCHEMES = ["deterministic", "randomized", "conventional", "randomized-high-gain"]


def written(row, *columns, header="h"):
    """The bytes write_rows writes for the columns through the template row."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        cli.write_rows(path, header, row, *columns)
        return path.read_bytes()


def expected(row, *columns, header="h"):
    """The bytes of the header and of row % entry for each entry, in UTF-8."""
    return (header + "\n" + "".join(row % entry for entry in zip(*columns))).encode()


def assert_cells(row, *columns):
    got = written(row, *columns).decode().split("\n")
    want = expected(row, *columns).decode().split("\n")
    assert got == want


def neighbours(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# every double: finite, subnormal, +-0.0, +-inf and nan, and any bit pattern
doubles = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(1e-7, 1e18).flatmap(lambda v: st.sampled_from([v, -v])),
)


class TestCells:
    @given(st.lists(doubles, min_size=1, max_size=40))
    def test_float_cells_equal_percent_17g(self, values):
        assert_cells("%.17g\n", np.array(values))

    @given(st.lists(st.tuples(doubles, st.integers(-(2**63), 2**63 - 1)), min_size=1, max_size=40))
    def test_float_and_int_columns_share_rows(self, pairs):
        floats, ints = zip(*pairs)
        assert_cells("%d,%.17g,%d\n", np.array(ints), np.array(floats), np.array(ints))

    def test_powers_of_ten_and_their_neighbours(self):
        values = [v for j in range(-8, 19) for v in neighbours(float(f"1e{j}"))]
        assert_cells("%.17g\n", np.array(values + [-v for v in values]))

    def test_edges_of_the_exact_range(self):
        """1e-6 (its double lies below 10**-6), 1e-4 (the switch from
        exponent to fixed form), 1e16 and 1e17, three ulps either side."""
        values = []
        for edge in (1e-6, 1e-4, 1e16, 1e17):
            v = edge
            for _ in range(3):
                v = math.nextafter(v, 0.0)
            for _ in range(7):
                values.append(v)
                v = math.nextafter(v, math.inf)
        assert_cells("%.17g\n", np.array(values + [-v for v in values]))

    def test_half_way_products_round_to_even(self):
        """Doubles whose 17-digit rounding is an exact tie: x.25 and x.75
        in [2**50, 2**51), where the spacing is 0.25."""
        start = 2**50
        ties = [1234567890123456.75, 1234567890123457.25]
        ties += [start + k + f for k in range(0, 40, 3) for f in (0.25, 0.75)]
        assert all(("%.20g" % v).endswith(("25", "75")) for v in ties)
        assert_cells("%.17g\n", np.array(ties + [-v for v in ties]))

    def test_int_cells(self):
        values = [0, 1, -1, 9, 10, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 10**16 - 1,
                  10**16, 10**17, 2**63 - 1, -(2**63)]
        assert_cells("%d\n", np.array(values, dtype=np.int64))
        assert_cells("%d\n", np.array([0, 1, 1, 0], dtype=np.int8))
        assert_cells("%d\n", np.array([True, False]))
        assert_cells("%d\n", np.array([2**64 - 1, 2**53 + 1, 5], dtype=np.uint64))

    def test_text_cells(self):
        words = ["thermostat-hi", "", "é", "√2", "thermostat-hi", "a b", "frequency"]
        assert_cells("%s,%d\n", words, np.arange(len(words)))

    def test_chunk_boundaries(self, monkeypatch):
        """Chunks of 7 rows: full ones, a short last one, and columns of
        unequal length cut to the shortest, as zip cuts them."""
        monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
        rng = np.random.default_rng(5)
        times = rng.normal(size=30) * 10.0 ** rng.integers(-8, 18, 30)
        causes = [["thermostat-lo", "frequency"][i % 2] for i in range(31)]
        assert_cells("%.17g,%d,%s\n", times, np.arange(29), causes)
        assert_cells("%.17g\n", times[:7])


@pytest.fixture(scope="module")
def shipped(shipped_file):
    """The shipped scenario's 600 s deterministic trace, and its 30 s one."""
    traces = {}
    for horizon in (600.0, 30.0):
        sc, _ = dataclasses.replace(shipped_file, horizon=horizon).build_scenario()
        traces[horizon] = simulate(sc)
    return traces


def write_both(writer, tr, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    getattr(cli, writer)(tr, new)
    getattr(reference, writer)(tr, old)
    return new.read_bytes(), old.read_bytes()


class TestFiles:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_outputs_equal_the_oracle(self, shipped_file, tmp_path, scheme):
        """The shipped scenario at 60 s under each scheme."""
        sf = dataclasses.replace(shipped_file, horizon=60.0, scheme=parse_scheme(scheme))
        tr = simulate(sf.build_scenario()[0])
        assert tr.switch_times.size > 0
        for writer in ("write_trace_csv", "write_switch_log_csv"):
            new, old = write_both(writer, tr, tmp_path)
            assert new == old, writer

    def test_empty_switch_log_is_its_header(self, shipped_file, tmp_path):
        tr = simulate(dataclasses.replace(shipped_file, horizon=0.05).build_scenario()[0])
        assert tr.switch_times.size == 0
        new, old = write_both("write_switch_log_csv", tr, tmp_path)
        assert new == old == b"t,load,new_sigma,cause\n"
        new, old = write_both("write_trace_csv", tr, tmp_path)
        assert new == old

    def test_compare_outputs_equal_the_oracle(self, shipped_file, tmp_path):
        out = tmp_path / "cmp"
        argv = ["compare", "--scenario", str(SHIPPED_SCENARIO), "--out", str(out)]
        assert main([*argv, "--horizon", "5"]) == 0
        runs = compare_schemes(dataclasses.replace(shipped_file, horizon=5.0).build_scenario()[0])
        want = tmp_path / "want"
        want.mkdir()
        for name, run in runs.items():
            reference.write_trace_csv(run.trace, want / f"trace_{name}.csv")
            reference.write_rows(
                want / f"on_fraction_{name}.csv", "t,on_fraction", "%.17g,%.17g\n",
                run.trace.times.tolist(), run.trace.on_fraction.tolist(),
            )
        peaks = [run.metrics.peak_abs_omega for run in runs.values()]
        reference.write_rows(want / "comparison.csv", "scheme,peak_abs_omega_hz", "%s,%.17g\n", runs, peaks)
        names = sorted(path.name for path in want.iterdir())
        assert sorted(path.name for path in out.glob("*.csv")) == names
        for name in names:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_shipped_600_s_trace_equals_the_oracle(self, shipped, tmp_path):
        for writer in ("write_trace_csv", "write_switch_log_csv"):
            new, old = write_both(writer, shipped[600.0], tmp_path)
            assert new == old, writer


def head(tr, rows):
    """The trace cut to its first rows samples."""
    cut = {
        name: getattr(tr, name)[:rows]
        for name in ("times", "jumps", "omega", "x_hat", "d_s", "on_fraction")
    }
    return dataclasses.replace(tr, **cut)


def traced_peak(write, tr, path):
    # the first CSV write of a process builds the formatting tables
    cli.write_trace_csv(head(tr, 1), path)
    tracemalloc.start()
    try:
        write(tr, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_peak_at_most_the_oracles(self, shipped, tmp_path):
        """On the shipped 30 s trace the chunked writer's traced peak is at
        most the row-by-row writer's."""
        tr = shipped[30.0]
        assert tr.times.size > 3 * cli.CHUNK_ROWS
        new = traced_peak(cli.write_trace_csv, tr, tmp_path / "new.csv")
        old = traced_peak(reference.write_trace_csv, tr, tmp_path / "old.csv")
        assert new <= old

    def test_peak_does_not_grow_with_the_rows(self, shipped, tmp_path):
        """The 600 s trace (about 60 chunks) peaks no higher than its first
        two chunks do, up to 64 kB."""
        tr = shipped[600.0]
        assert tr.times.size > 50 * cli.CHUNK_ROWS
        whole = traced_peak(cli.write_trace_csv, tr, tmp_path / "whole.csv")
        two = traced_peak(cli.write_trace_csv, head(tr, 2 * cli.CHUNK_ROWS), tmp_path / "two.csv")
        assert whole <= two + 64 * 1024
