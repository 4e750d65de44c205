import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from tclgrid.cli import main
from tests.conftest import REPO_ROOT, SHIPPED_SCENARIO

DATA = REPO_ROOT / "tests" / "data"

SMALL_DOC = {
    "grid": {"m": 10.0, "d": 1.0},
    "population": {"n_loads": 20, "gamma": 0.1, "seed": 1},
    "scheme": "deterministic",
    "disturbance": [[0.0, 0.0], [2.0, 1.0]],
    "horizon": 20.0,
    "seed": 2,
    "max_step": 0.05,
    "design": {"allocate": True},
}


@pytest.fixture
def small_scenario(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(SMALL_DOC))
    return path


class TestRun:
    def test_run_writes_outputs(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(small_scenario), "--out", str(out)])
        assert code == 0
        for name in ("trace.csv", "switch_events.csv", "metrics.txt", "manifest.json"):
            assert (out / name).exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("t,jumps,omega")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "tclgrid"
        assert manifest["seed"] == 2
        assert len(manifest["scenario_sha256"]) == 64

    def test_overrides_apply(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--scenario", str(small_scenario), "--out", str(out),
            "--seed", "9", "--horizon", "5", "--scheme", "conventional",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        last = (out / "trace.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(5.0)

    def test_repeat_runs_byte_identical(self, small_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(small_scenario), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(small_scenario), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "switch_events.csv").read_bytes() == (
            out2 / "switch_events.csv"
        ).read_bytes()


    def test_allocated_run_computes_one_norm_once(self, small_scenario, tmp_path, monkeypatch):
        from tclgrid import cli, grid_model

        calls = []
        real = grid_model.one_norm

        def counted(grid):
            calls.append(grid)
            return real(grid)

        monkeypatch.setattr(grid_model, "one_norm", counted)
        monkeypatch.setattr(cli, "one_norm", counted)
        assert main(["run", "--scenario", str(small_scenario), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1


class TestCompare:
    def test_compare_writes_all_cases(self, small_scenario, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--scenario", str(small_scenario), "--out", str(out),
            "--horizon", "10",
        ])
        assert code == 0
        body = (out / "comparison.csv").read_text()
        for name in ("conventional", "deterministic", "randomized", "randomized-high-gain"):
            assert name in body
            assert (out / f"trace_{name}.csv").exists()
            assert (out / f"on_fraction_{name}.csv").exists()


class TestCertify:
    def test_shipped_scenario_certifies(self, capsys):
        code = main(["certify", "--scenario", str(SHIPPED_SCENARIO)])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied: True" in out
        assert "l_hat" in out

    def test_unsatisfied_design_returns_certification_code(self, tmp_path, capsys):
        doc = dict(SMALL_DOC, population={"n_loads": 20, "gamma": 3.0, "seed": 1})
        doc["design"] = {"allocate": False}
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main(["certify", "--scenario", str(path)])
        assert code == 4
        assert "satisfied: False" in capsys.readouterr().out

    def test_infeasible_design_is_config_error(self, small_scenario, capsys):
        code = main([
            "certify", "--scenario", str(small_scenario), "--delta", "0.4",
        ])
        assert code == 2


class TestStats:
    def test_stats_reports_bound(self, small_scenario, capsys):
        code = main([
            "stats", "--scenario", str(small_scenario), "--horizon", "50000",
            "--pairs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound_satisfied: True" in out
        assert "measured_variance" in out


    @pytest.mark.parametrize("pairs", ["-3", "1"])
    def test_bad_pair_count_is_config_error(self, tmp_path, capsys, pairs):
        doc = dict(SMALL_DOC, population={"n_loads": 1, "gamma": 0.01, "seed": 1})
        path = tmp_path / "one.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main(["stats", "--scenario", str(path), "--horizon", "100", "--pairs", pairs])
        assert code == 2
        assert "--pairs" in capsys.readouterr().err

    def test_single_load_without_pairs_runs(self, tmp_path, capsys):
        doc = dict(SMALL_DOC, population={"n_loads": 1, "gamma": 0.01, "seed": 1})
        path = tmp_path / "one.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main(["stats", "--scenario", str(path), "--horizon", "100", "--pairs", "0"])
        assert code == 0


class TestErrors:
    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == 2

    def test_malformed_scenario_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("scheme: conventional\n")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    @pytest.mark.parametrize("horizon", ["nan", "0", "-5"])
    def test_bad_horizon_is_config_error(self, small_scenario, tmp_path, capsys, command, horizon):
        argv = [command, "--scenario", str(small_scenario), "--horizon", horizon]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_negative_seed_is_config_error(self, small_scenario, tmp_path, capsys, command):
        argv = [command, "--scenario", str(small_scenario), "--seed=-1"]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "population, root",
        [
            ({"n_loads": 20, "gamma": 0.1, "seed": -1}, {}),
            ({"n_loads": 20, "gamma": 0.1, "seed": 1}, {"seed": 17.9}),
            ({"n_loads": 2.5, "gamma": 0.1, "seed": 1}, {}),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_bad_seed_or_load_count_in_file_is_config_error(
        self, tmp_path, capsys, population, root, command
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, population=population, **root)))
        argv = [command, "--scenario", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "no", 1])
    @pytest.mark.parametrize("field", ["offset_demand", "clamp_omega", "allocate"])
    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_non_boolean_flag_is_config_error(self, tmp_path, capsys, command, field, value):
        doc = dict(SMALL_DOC, design=dict(SMALL_DOC["design"]))
        section = doc["design"] if field == "allocate" else doc
        section[field] = value
        path = tmp_path / "flag.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = [command, "--scenario", str(path)]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err


    @pytest.mark.parametrize(
        "path, value",
        [
            (["population"], [1, 2]),
            (["design"], [1]),
            (["population", "ranges"], {"t_amb": ["x", 3]}),
            (["design", "threshold_range"], [0.01]),
        ],
        ids=["population-list", "design-list", "range-not-numeric", "threshold-range-short"],
    )
    def test_malformed_section_is_config_error(self, tmp_path, capsys, path, value):
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        *parents, key = path
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        scenario = tmp_path / "malformed.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        assert main(["certify", "--scenario", str(scenario)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, options, field",
        [
            (["design", "delta"], math.nan, [], "design.delta"),
            (["population", "gamma"], math.nan, [], "population.gamma"),
            (["grid", "m"], math.nan, [], "grid.m"),
            (["grid", "gen", "t_g"], math.nan, [], "grid.gen.t_g"),
            (["grid", "gen", "t_g"], math.inf, [], "grid.gen.t_g"),
            (["scheme"], {"kind": "randomized", "k_pi": math.nan}, [], "k_pi"),
            (["disturbance"], [[0.0, 0.0], [1.0, math.inf]], [], "disturbance"),
            ([], None, ["--delta", "nan"], "design.delta"),
            ([], None, ["--margin", "nan"], "design.margin"),
        ],
        ids=["delta", "gamma", "m", "t_g", "t_g-inf", "k_pi", "disturbance", "delta-option", "margin-option"],
    )
    @pytest.mark.parametrize("command", ["run", "certify", "stats"])
    def test_non_finite_number_is_config_error(
        self, tmp_path, capsys, command, path, value, options, field
    ):
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        if path:
            *parents, key = path
            section = doc
            for name in parents:
                section = section[name]
            section[key] = value
        scenario = tmp_path / "non_finite.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        argv = [command, "--scenario", str(scenario), "--horizon", "2", *options]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and field in err


def test_commands_build_no_per_load_list(tmp_path, monkeypatch):
    """`certify`, `stats` and `run` carry one Population from sampling to
    output: only the cross-term pairs of `stats` build single-load records,
    at most two per pair."""
    from tclgrid.tcl import TclParams

    built = 0
    check = TclParams.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(TclParams, "__post_init__", counted)
    for argv, allowed in (
        (["certify"], 0),
        (["stats", "--pairs", "5"], 2 * 5),
        (["run", "--horizon", "2", "--out", str(tmp_path / "o")], 0),
    ):
        built = 0
        assert main([argv[0], "--scenario", str(SHIPPED_SCENARIO), *argv[1:]]) == 0
        assert built <= allowed, argv[0]


@pytest.mark.parametrize("command", ["certify", "stats"])
def test_shipped_scenario_output_is_pinned(capsys, command):
    """`certify` and `stats` print exactly the recorded output of the shipped
    scenario at a 2e4 s horizon with the default pair count."""
    expected = (DATA / f"{command}_desk_h2e4.txt").read_text()
    assert main([command, "--scenario", str(SHIPPED_SCENARIO), "--horizon", "2e4"]) == 0
    assert capsys.readouterr().out == expected


SCIPY_FREE_SCRIPT = """
import json, sys
import numpy as np
from tclgrid import cli
from tclgrid.grid_model import StateSpace, one_norm, transition

scenario, out = sys.argv[1:]
codes = [
    cli.main(["run", "--scenario", scenario, "--out", out, "--horizon", "2"]),
    cli.main(["certify", "--scenario", scenario]),
    cli.main(["stats", "--scenario", scenario, "--pairs", "1"]),
]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
jordan = StateSpace(
    a=np.array([[-1.0, 1.0], [0.0, -1.0]]), b=np.array([0.0, 1.0]),
    c=np.array([1.0, 0.0]), m=1.0, d=1.0, n=1,
)
result = one_norm(jordan)
phi, psi = transition(jordan, 0.8)
print(json.dumps({
    "codes": codes,
    "scipy_after_commands": loaded,
    "scipy_after_fallback": "scipy" in sys.modules,
    "jordan_modes": jordan.modes is not None,
    "one_norm": [result.value, result.tail_bound],
    "phi": phi.tolist(),
    "psi": psi.tolist(),
}))
"""


def test_commands_import_no_scipy(tmp_path):
    """`run`, `certify` and `stats` on a modal grid never import scipy; a
    defective grid still gets `one_norm` and `transition` from the lazily
    imported scipy fallback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SHIPPED_SCENARIO.parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(SHIPPED_SCENARIO), str(tmp_path / "o")],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert report["scipy_after_commands"] == []
    assert report["scipy_after_fallback"] and not report["jordan_modes"]
    # g(t) = t e^-t integrates to 1
    value, tail = report["one_norm"]
    assert value == pytest.approx(1.0, abs=1e-12) and tail <= 0.5e-8
    dt, decay = 0.8, math.exp(-0.8)
    np.testing.assert_allclose(report["phi"], [[decay, dt * decay], [0.0, decay]], rtol=1e-13)
    np.testing.assert_allclose(report["psi"], [1.0 - decay * (1.0 + dt), 1.0 - decay], rtol=1e-13)
