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

    @pytest.mark.parametrize(
        "argv", [["run", "--horizon", "1", "--scheme", "conventional"], ["stats", "--horizon", "100"]],
        ids=["run", "stats"],
    )
    def test_overrides_build_one_grid(self, small_scenario, tmp_path, monkeypatch, argv):
        # the command line's settings go into the document before it is
        # parsed, so a command builds one grid and decomposes it once
        from tclgrid.grid_model import StateSpace

        calls = {"grid": 0, "eig": 0}
        post_init, eig = StateSpace.__post_init__, np.linalg.eig

        def counted_grid(self):
            calls["grid"] += 1
            post_init(self)

        def counted_eig(a):
            calls["eig"] += 1
            return eig(a)

        monkeypatch.setattr(StateSpace, "__post_init__", counted_grid)
        monkeypatch.setattr(np.linalg, "eig", counted_eig)
        argv = [*argv, "--scenario", str(small_scenario)]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert calls == {"grid": 1, "eig": 1}

    def test_python_yaml_pair_writes_the_same_manifest(self, small_scenario, tmp_path, monkeypatch):
        # the scenario hash of libyaml's emitter, where PyYAML has it, is the
        # one of the pure-Python emitter, with the document read by either
        from tclgrid import scenario

        argv = ["run", "--scenario", str(small_scenario), "--horizon", "2", "--out"]
        assert main([*argv, str(tmp_path / "chosen")]) == 0
        monkeypatch.setattr(scenario, "LOADER", scenario.yaml_pair(libyaml=False)[0])
        monkeypatch.setattr(scenario, "DUMPER", scenario.yaml_pair(libyaml=False)[1])
        assert main([*argv, str(tmp_path / "python")]) == 0
        manifest = (tmp_path / "chosen" / "manifest.json").read_bytes()
        assert manifest == (tmp_path / "python" / "manifest.json").read_bytes()

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

    @pytest.mark.parametrize("gamma, warned", [(0.1, False), (3.0, True)])
    def test_unallocated_run_checks_its_own_thresholds(
        self, tmp_path, capsys, monkeypatch, gamma, warned
    ):
        # without allocation, run computes l-hat itself and warns when the
        # drawn thresholds violate the design condition
        from tclgrid import cli

        calls = []
        real = cli.one_norm

        def counted(grid):
            calls.append(grid)
            return real(grid)

        monkeypatch.setattr(cli, "one_norm", counted)
        population = dict(SMALL_DOC["population"], gamma=gamma)
        path = tmp_path / "unallocated.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, population=population, design={})))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert ("thresholds violate the design condition" in capsys.readouterr().err) == warned


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

    def test_allocate_option_allocates(self, tmp_path, capsys):
        # the document's design.allocate decides whether certify allocates
        path = tmp_path / "design.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, design={"allocate": False})))
        assert main(["certify", "--scenario", str(path)]) == 0
        assert "margin_used: 0\n" in capsys.readouterr().out
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, design={"allocate": True})))
        assert main(["certify", "--scenario", str(path)]) == 0
        assert "margin_used: 0.20000000000000001\n" in capsys.readouterr().out

    @pytest.mark.parametrize("allocate", [True, False])
    def test_certify_computes_one_norm_once(self, tmp_path, capsys, monkeypatch, allocate):
        # the allocator's report carries the l-hat certify prints
        from tclgrid import cli, grid_model

        calls = []
        real = grid_model.one_norm

        def counted(grid):
            calls.append(grid)
            return real(grid)

        monkeypatch.setattr(grid_model, "one_norm", counted)
        monkeypatch.setattr(cli, "one_norm", counted)
        path = tmp_path / "small.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, design={"allocate": allocate})))
        assert main(["certify", "--scenario", str(path)]) == 0
        assert len(calls) == 1
        assert f"l_hat: {real(calls[0]).value:.6g} Hz/pu\n" in capsys.readouterr().out

    def test_non_hurwitz_grid_is_numeric_error(self, tmp_path, capsys):
        # one_norm rejects the grid, whether the allocator or the report asks for it
        gen = {"a_hat": [[1.0]], "b_hat": [0.0], "c_hat": [1.0], "d_hat": 0.0}
        grid = {"m": 10.0, "d": 1.0, "gen": gen}
        path = tmp_path / "unstable.yaml"
        for allocate in (True, False):
            doc = dict(SMALL_DOC, grid=grid, design={"allocate": allocate})
            path.write_text(yaml.safe_dump(doc))
            assert main(["certify", "--scenario", str(path)]) == 3
            assert capsys.readouterr().err == (
                "simulation error: system is not Hurwitz (spectral abscissa 1.000e+00)\n"
            )

    def test_infeasible_design_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "infeasible.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, design={"allocate": True, "delta": 0.4})))
        assert main(["certify", "--scenario", str(path)]) == 2


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

    def test_constant_demand_has_zero_variance(self, tmp_path, capsys):
        # one load that never switches in the window: its constant demand's
        # one-pass variance came out as -1.110223e-16
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        doc.update(population={"n_loads": 1, "gamma": 0.8521266415512221, "seed": 4}, seed=4)
        path = tmp_path / "one.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main([
            "stats", "--scenario", str(path), "--horizon", "12.482217091288122", "--pairs", "0",
        ])
        assert code == 0
        assert "measured_variance: 0\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["run", "compare", "stats"])
    @pytest.mark.parametrize("horizon", ["nan", "0", "-5"])
    def test_bad_horizon_is_config_error(self, small_scenario, tmp_path, capsys, command, horizon):
        argv = [command, "--scenario", str(small_scenario), "--horizon", horizon]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param(command, flag, id=f"{name}-{command}")
            for name, flag in [
                ("delta", ["--delta", "0.002"]), ("margin", ["--margin", "0.1"]),
                ("allocate", ["--allocate"]),
            ]
            for command in ("run", "compare", "certify", "stats")
        ] + [
            pytest.param("certify", flag, id=f"{name}-certify")
            for name, flag in [
                ("horizon-nan", ["--horizon", "nan"]), ("horizon-0", ["--horizon", "0"]),
                ("horizon--5", ["--horizon", "-5"]), ("seed", ["--seed=-1"]),
            ]
        ],
    )
    def test_design_flag_is_usage_error(self, small_scenario, tmp_path, capsys, command, flag):
        # the document alone sets the design, so certify and run see one
        # design; certify reads nothing else of it, so it takes no run setting
        argv = [command, "--scenario", str(small_scenario), *flag]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "stats"])
    def test_negative_seed_is_config_error(self, small_scenario, tmp_path, capsys, command):
        argv = [command, "--scenario", str(small_scenario), "--seed=-1"]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["m", "d"])
    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_non_positive_inertia_or_damping_is_config_error(
        self, tmp_path, capsys, command, field, value
    ):
        # without allocation no command needs the grid before simulating, so
        # the rule must hold at load
        grid = dict(SMALL_DOC["grid"], **{field: value})
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, grid=grid, design={"allocate": False})))
        argv = [command, "--scenario", str(path)]
        if command in ("run", "compare"):
            argv += ["--horizon", "1", "--out", str(tmp_path / "o")]
        if command == "stats":
            argv += ["--horizon", "1", "--pairs", "0"]
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("configuration error:") and f"{field} must be positive" in line
        assert line.startswith(f"configuration error: grid.{field}: ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_inertia_whose_inverse_overflows_is_config_error(self, tmp_path, capsys, command):
        # 1/m is inf: the rule on m names grid.m before any division by it
        # warns, and no command reaches the grid's infinite a
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        doc["grid"]["m"] = 1e-320
        path = tmp_path / "tiny-m.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = [command, "--scenario", str(path)]
        if command in ("run", "compare"):
            argv += ["--horizon", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "configuration error: grid.m: inertia m is so small that 1/m overflows, got 1e-320\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old, new, key, line",
        [
            ("horizon: 600.0\n", "horizon: 600.0\nhorizon: 5.0\n", "horizon", 23),
            ("  gamma: 0.7\n", "  gamma: 0.7\n  gamma: 0.5\n", "gamma", 16),
            ("    k_p: 20.0\n", "    k_p: 20.0\n    k_p: 2.0\n", "k_p", 12),
            ("  seed: 101\n", "  seed: 101\n  ranges: {eps: [0.001, 0.002], eps: [0.001, 0.003]}\n",
             "eps", 17),
        ],
        ids=["root", "section", "gen", "flow-mapping"],
    )
    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_duplicate_key_is_config_error(self, tmp_path, capsys, command, old, new, key, line):
        # PyYAML keeps the last of two equal keys, so the first would be
        # ignored without a word: the document is refused instead
        path = tmp_path / "duplicate.yaml"
        text = SHIPPED_SCENARIO.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        argv = [command, "--scenario", str(path)]
        if command in ("run", "compare"):
            argv += ["--horizon", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot parse scenario file {path}: "
            f"duplicate key {key!r} at line {line}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "certify", "stats"])
    def test_grid_inside_the_hurwitz_margin_is_numeric_error(self, tmp_path, capsys, command):
        # abscissa -5e-10: one_norm refuses it as simulate and certify do, so
        # no command allocates thresholds from an l-hat of 2e9
        gen = {"a_hat": [[-1.0]], "b_hat": [0.0], "c_hat": [0.0], "d_hat": 0.0}
        path = tmp_path / "marginal.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, grid={"m": 1.0, "d": 5e-10, "gen": gen})))
        argv = [command, "--scenario", str(path)]
        argv += {
            "run": ["--horizon", "1", "--out", str(tmp_path / "o")],
            "stats": ["--horizon", "1", "--pairs", "0"],
        }.get(command, [])
        assert main(argv) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert "not Hurwitz" in line

    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_jordan_block_grid_is_config_error(self, tmp_path, capsys, command):
        # a Hurwitz grid whose combined a is a Jordan block has no modal form,
        # which the simulator and the 1-norm need: every command refuses it at
        # load and writes nothing, while an unstable one keeps its numeric error
        argv = [command, "--scenario", str(tmp_path / "jordan.yaml")]
        argv += {"run": ["--horizon", "1", "--out", str(tmp_path / "o")],
                 "compare": ["--horizon", "1", "--out", str(tmp_path / "o")],
                 "stats": ["--horizon", "1", "--pairs", "0"]}.get(command, [])
        for d_hat, code in ((0.0, 2), (2.0, 3)):
            gen = {"a_hat": [[-1.0 + d_hat]], "b_hat": [0.0], "c_hat": [1.0], "d_hat": d_hat}
            doc = dict(SMALL_DOC, grid={"m": 1.0, "d": 1.0, "gen": gen})
            (tmp_path / "jordan.yaml").write_text(yaml.safe_dump(doc))
            assert main(argv) == code
            [line] = capsys.readouterr().err.splitlines()
            if code == 2:
                assert line.startswith("configuration error: grid: ")
                assert "no well-conditioned modal form" in line
                assert not (tmp_path / "o").exists()
            else:
                assert line.startswith("simulation error: ") and "not Hurwitz" in line

    @pytest.mark.parametrize("field", ["horizon", "population.n_loads"])
    def test_integer_beyond_double_range_is_config_error(self, tmp_path, capsys, field):
        doc = yaml.safe_load(yaml.safe_dump(SMALL_DOC))
        *sections, key = field.split(".")
        section = doc[sections[0]] if sections else doc
        section[key] = 10**400
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(doc))
        for command in ("certify", "stats"):
            assert main([command, "--scenario", str(path)]) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith(f"configuration error: {field}")

    @pytest.mark.parametrize("horizon", ["1e15", "1e300"])
    def test_stats_series_too_long_to_hold_is_numeric_error(self, capsys, horizon):
        # 1e15 s asks 31 PiB of the merge, which fails at once; 1e300 s has
        # cycle counts past any integer an array holds
        argv = ["stats", "--scenario", str(SHIPPED_SCENARIO), "--horizon", horizon, "--pairs", "0"]
        assert main(argv) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("simulation error: ")

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

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("population", {"n_loads": 0}, "n_loads must be positive, got 0"),
            ("population", {"gamma": 0}, "gamma must be positive, got 0.0"),
            ("grid", {"gen": {"preset": "droop"}}, "unknown gen preset 'droop'"),
        ],
        ids=["no-loads", "zero-gamma", "unknown-preset"],
    )
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_rejected_value_is_config_error(
        self, tmp_path, capsys, command, section, value, message
    ):
        path = tmp_path / "rejected.yaml"
        path.write_text(yaml.safe_dump({**SMALL_DOC, section: {**SMALL_DOC[section], **value}}))
        argv = [command, "--scenario", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "no", 1])
    @pytest.mark.parametrize("field", ["allocate"])
    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_non_boolean_flag_is_config_error(self, tmp_path, capsys, command, field, value):
        doc = dict(SMALL_DOC, design=dict(SMALL_DOC["design"], **{field: value}))
        path = tmp_path / "flag.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = [command, "--scenario", str(path)]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err


    def test_eps_range_leaving_guards_on_thresholds_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # t_hi - eps rounds to t_hi at the corners of this box, so the box
        # fails check_loads before any load is drawn
        population = dict(SMALL_DOC["population"], ranges={"eps": [1e-17, 2e-17]})
        path = tmp_path / "eps.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, population=population)))

        def simulate(sc):
            raise AssertionError("the run simulated")

        monkeypatch.setattr("tclgrid.cli.simulate", simulate)
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: population.ranges: range box" in err
        assert "eps must move the guards" in err

    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_unknown_field_is_config_error(self, tmp_path, capsys, command):
        # a misspelled field, and the retired clamp_omega, offset_demand and
        # design.threshold_range
        path = tmp_path / "typo.yaml"
        argv = [command, "--scenario", str(path)]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        cases = [
            ({**SMALL_DOC, "max_stepp": True}, "max_stepp", "<root>"),
            ({**SMALL_DOC, "clamp_omega": True}, "clamp_omega", "<root>"),
            ({**SMALL_DOC, "offset_demand": False}, "offset_demand", "<root>"),
            (
                {**SMALL_DOC, "design": {**SMALL_DOC["design"], "threshold_range": [0.01, 0.26]}},
                "threshold_range", "design",
            ),
        ]
        for doc, key, section in cases:
            path.write_text(yaml.safe_dump(doc))
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"configuration error: unknown field '{key}' in section '{section}'\n"

    @pytest.mark.parametrize("field, value", [("k_pi", 7.0), ("v_des", 3.0)])
    def test_rate_field_of_deterministic_scheme_is_config_error(
        self, tmp_path, capsys, field, value
    ):
        path = tmp_path / "rate.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, scheme={"kind": "deterministic", field: value})))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err

    @pytest.mark.parametrize(
        "schedule",
        [[], [[1.0, 0.0], [2.0, 1.0]], [[0.0, 0.0], [1.0, 2.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        ids=["empty", "late-start", "decreasing", "repeated"],
    )
    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_bad_disturbance_schedule_is_config_error(
        self, tmp_path, capsys, command, schedule
    ):
        path = tmp_path / "schedule.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_DOC, disturbance=schedule)))
        argv = [command, "--scenario", str(path)]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "disturbance" in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (["population"], [1, 2]),
            (["design"], [1]),
            (["population", "ranges"], {"t_amb": ["x", 3]}),
            (["population", "ranges", "omega1"], [0.01]),
        ],
        ids=["population-list", "design-list", "range-not-numeric", "threshold-range-short"],
    )
    def test_malformed_section_is_config_error(self, tmp_path, capsys, path, value):
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        *parents, key = path
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
        scenario = tmp_path / "malformed.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        assert main(["certify", "--scenario", str(scenario)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (["design", "delta"], math.nan, "design.delta"),
            (["design", "margin"], math.nan, "design.margin"),
            (["population", "gamma"], math.nan, "population.gamma"),
            (["grid", "m"], math.nan, "grid.m"),
            (["grid", "gen", "t_g"], math.nan, "grid.gen.t_g"),
            (["grid", "gen", "t_g"], math.inf, "grid.gen.t_g"),
            (["scheme"], {"kind": "randomized", "k_pi": math.nan}, "k_pi"),
            (["disturbance"], [[0.0, 0.0], [1.0, math.inf]], "disturbance"),
        ],
        ids=["delta", "margin", "gamma", "m", "t_g", "t_g-inf", "k_pi", "disturbance"],
    )
    @pytest.mark.parametrize("command", ["run", "certify", "stats"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command, path, value, field):
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        *parents, key = path
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        scenario = tmp_path / "non_finite.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        argv = [command, "--scenario", str(scenario)]
        argv += {"run": ["--horizon", "2", "--out", str(tmp_path / "o")],
                 "stats": ["--horizon", "2"]}.get(command, [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and field in err

    @pytest.mark.parametrize(
        "path, field", [(["horizon"], "horizon"), (["grid", "m"], "grid.m")], ids=["horizon", "m"]
    )
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_yaml_boolean_in_number_field_is_config_error(
        self, tmp_path, capsys, command, path, field
    ):
        # `horizon: true` would run a 1 s simulation and `grid.m: true` certify
        # a grid of inertia 1 if true were read as 1.0
        text = SHIPPED_SCENARIO.read_text()
        *parents, key = path
        indent = "  " * len(parents)
        assert f"\n{indent}{key}: " in text
        text = "\n".join(
            f"{indent}{key}: true" if line.startswith(f"{indent}{key}: ") else line
            for line in text.splitlines()
        )
        scenario = tmp_path / "flag_number.yaml"
        scenario.write_text(text)
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {field} must be a number, got True\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "omega1, message",
        [
            ([0.1, 0.1], ".omega1: invalid threshold range (0.1, 0.1)"),
            (
                [0.0005, 0.0009],
                ".omega1: delta=0.001 leaves no feasible thresholds below the range top 0.0009",
            ),
            (
                [-0.1, 0.1],
                ": range box corner 0: omega1 must be positive (d_bar=0.0014, t_lo=2.0, "
                "t_hi=5.0, k=0.0002, cop=17857.14285714286, t_amb=15.0, omega1=-0.1, eps=0.001)",
            ),
        ],
        ids=["empty", "below-delta", "range-box-corner"],
    )
    def test_threshold_range_allocation_error_names_its_field(
        self, tmp_path, capsys, omega1, message
    ):
        # the allocation's rules lead with the field, the range box's with its section
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        doc["population"]["ranges"] = {"omega1": omega1}
        scenario = tmp_path / "omega1.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        assert main(["certify", "--scenario", str(scenario)]) == 2
        assert capsys.readouterr().err == f"configuration error: population.ranges{message}\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("margin", 1.5, "margin must lie in [0, 1), got 1.5"),
            ("delta", 0.0, "delta must be positive, got 0.0"),
            ("delta", -0.5, "delta must be positive, got -0.5"),
        ],
        ids=["margin", "delta-zero", "delta-negative"],
    )
    @pytest.mark.parametrize("command", ["run", "compare", "certify", "stats"])
    def test_design_error_names_its_field(self, tmp_path, capsys, command, field, value, message):
        # the shipped scenario allocates, so every command meets the rule
        doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
        doc["design"][field] = value
        scenario = tmp_path / "design.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        argv = [command, "--scenario", str(scenario)]
        if command != "certify":
            argv += ["--horizon", "1"]
        if command in ("run", "compare"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"configuration error: design.{field}: {message}\n"


def test_commands_build_no_per_load_list(tmp_path, monkeypatch):
    """`certify`, `stats` and `run` carry one Population from sampling to
    output: three array populations (the range box's corners, the drawn
    loads and the allocated thresholds), and only the cross-term pairs of
    `stats` build one-load populations (scalar fields), at most two per
    pair, whose demand series are built from them as they are."""
    from tclgrid.tcl import Population

    built = {"scalar": 0, "array": 0}
    check = Population.__post_init__

    def counted(self):
        built["scalar" if np.ndim(self.d_bar) == 0 else "array"] += 1
        check(self)

    monkeypatch.setattr(Population, "__post_init__", counted)
    for argv, allowed in (
        (["certify"], 0),
        (["stats", "--pairs", "5"], 2 * 5),
        (["run", "--horizon", "2", "--out", str(tmp_path / "o")], 0),
    ):
        built.update(scalar=0, array=0)
        assert main([argv[0], "--scenario", str(SHIPPED_SCENARIO), *argv[1:]]) == 0
        assert built["scalar"] <= allowed, argv[0]
        assert built["array"] <= 3, argv[0]


@pytest.mark.parametrize("command", ["certify", "stats"])
def test_shipped_scenario_output_is_pinned(capsys, command):
    """`certify` and `stats` print exactly the recorded output of the shipped
    scenario, `stats` at a 2e4 s horizon with the default pair count."""
    expected = (DATA / f"{command}_desk_h2e4.txt").read_text()
    argv = [command, "--scenario", str(SHIPPED_SCENARIO)]
    assert main(argv + (["--horizon", "2e4"] if command == "stats" else [])) == 0
    assert capsys.readouterr().out == expected


def read_pinned_switches(path):
    """The recorded switch log and the header line's sample count and peak
    |omega| of a pinned run."""
    lines = path.read_text().splitlines()
    fields = dict(part.split(": ") for part in lines[0].lstrip("# ").split("; ")[1:])
    rows = [line.split(",") for line in lines[2:]]
    return rows, int(fields["samples"]), float(fields["peak_abs_omega_hz"])


@pytest.mark.parametrize("scheme", ["deterministic", "randomized"])
def test_shipped_switch_sequence_is_pinned(tmp_path, scheme):
    """`run` on the shipped scenario at a 60 s horizon makes the recorded
    switches in the recorded order. Times may move by rounding of the flow
    and the event search, never by more than 1e-5 s."""
    rows, samples, peak = read_pinned_switches(DATA / f"switches_desk_h60_{scheme}.csv")
    out = tmp_path / scheme
    argv = ["run", "--scenario", str(SHIPPED_SCENARIO), "--out", str(out)]
    assert main([*argv, "--horizon", "60", "--scheme", scheme]) == 0
    got = [line.split(",") for line in (out / "switch_events.csv").read_text().splitlines()[1:]]
    assert [r[1:] for r in got] == [r[1:] for r in rows]
    times = np.array([float(r[0]) for r in got])
    np.testing.assert_allclose(times, [float(r[0]) for r in rows], rtol=0, atol=1e-5)
    assert len((out / "trace.csv").read_text().splitlines()) - 1 == samples
    metrics = dict(line.split(": ") for line in (out / "metrics.txt").read_text().splitlines())
    assert float(metrics["peak_abs_omega_hz"]) == pytest.approx(peak, rel=1e-9, abs=0)


@pytest.mark.parametrize("scheme", ["deterministic", "randomized"])
def test_overflowing_grid_state_is_a_simulation_error(tmp_path, capsys, scheme):
    """A finite 1.7e308 pu step of demand drives the shipped grid past the
    largest double a few seconds later: `run` exits 3 on the non-finite grid
    state, and the bounds taken on the way (envelope, curvature) raise
    nothing."""
    doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
    doc["disturbance"] = [[0.0, 0.0], [1.0, 1.7e308]]
    scenario = tmp_path / "overflow.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    argv = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "o"), "--horizon", "10"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--scheme", scheme]) == 3
    assert "simulation error: non-finite grid state at t=4.0" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["deterministic", "randomized"])
def test_overflowing_run_prints_only_its_error(tmp_path, scheme):
    """The run above as a console command, with numpy's default warning
    settings: stderr is the one `simulation error:` line, with no
    RuntimeWarning before it, and the exit code is 3."""
    doc = yaml.safe_load(SHIPPED_SCENARIO.read_text())
    doc["disturbance"] = [[0.0, 0.0], [1.0, 1.7e308]]
    scenario = tmp_path / "overflow.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    argv = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "o"), "--horizon", "10"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "tclgrid.cli", *argv, "--scheme", scheme],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("simulation error: non-finite grid state at t=4.0")


SCIPY_FREE_SCRIPT = """
import json, sys
import numpy as np
from tclgrid import cli
from tclgrid.grid_model import GridModelError, StateSpace, one_norm, transition

scenario, out = sys.argv[1:]
codes = [
    cli.main(["run", "--scenario", scenario, "--out", out, "--horizon", "2"]),
    cli.main(["certify", "--scenario", scenario]),
    cli.main(["stats", "--scenario", scenario, "--pairs", "1"]),
]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
jordan = StateSpace(
    a=np.array([[-1.0, 1.0], [0.0, -1.0]]), b=np.array([0.0, 1.0]),
    c=np.array([1.0, 0.0]),
)
try:
    one_norm(jordan)
    refused = ""
except GridModelError as exc:
    refused = str(exc)
scipy_after_refusal = "scipy" in sys.modules
phi, psi = transition(jordan, 0.8)
print(json.dumps({
    "codes": codes,
    "scipy_after_commands": loaded,
    "refused": refused,
    "scipy_after_refusal": scipy_after_refusal,
    "scipy_after_transition": "scipy" in sys.modules,
    "phi": phi.tolist(),
    "psi": psi.tolist(),
}))
"""


def test_commands_import_no_scipy(tmp_path):
    """`run`, `certify` and `stats` on a modal grid never import scipy; a
    defective grid has no 1-norm, and gets `transition` alone from the
    lazily imported scipy."""
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
    assert "no well-conditioned modal form" in report["refused"]
    assert not report["scipy_after_refusal"] and report["scipy_after_transition"]
    dt, decay = 0.8, math.exp(-0.8)
    np.testing.assert_allclose(report["phi"], [[decay, dt * decay], [0.0, decay]], rtol=1e-13)
    np.testing.assert_allclose(report["psi"], [1.0 - decay * (1.0 + dt), 1.0 - decay], rtol=1e-13)


# each part of test_merges_import_no_numpy_ma: a script that leaves its
# result in `result`, and that result
NUMPY_MA_PARTS = {
    # eight times a few bit patterns apart share their high bits, and their
    # inverted group is re-sorted
    "time_order": ("""
from tclgrid import stats
bits = (np.array(1e3).view(np.int64) >> 16 << 16) + np.array([9, 2, 8, 1, 15, 0, 2, 12])
result = stats.time_order(bits.view(float))[0].tolist()
""", [5, 3, 1, 6, 2, 0, 7, 4]),
    # load 4, OFF at its upper threshold, is thermostat-due at t = 0, and
    # the clock of load 11 fired
    "candidates": ("""
from tclgrid.hybrid_sim import LoadAnchors
from tclgrid.tcl import PopulationSpec, Scheme, sample_initial_states, sample_population
pop = sample_population(PopulationSpec(20, 0.05, seed=3))
temps, sigmas = sample_initial_states(pop, 3)
temps[4], sigmas[4] = pop.t_hi[4], 0
result = LoadAnchors(pop, Scheme.randomized(), temps, sigmas).candidates(0.0, 0.0, 11).tolist()
""", [4, 11]),
    "commands": ("""
from tclgrid.cli import main
result = [
    main(["run", "--scenario", scenario, "--out", out, "--horizon", "5"]),
    main(["stats", "--scenario", scenario, "--horizon", "2e4", "--pairs", "2"]),
]
""", [0, 0]),
}


@pytest.mark.parametrize("part", NUMPY_MA_PARTS)
def test_merges_import_no_numpy_ma(tmp_path, part):
    """The merges dedupe by sort and compare, never by np.unique, whose
    first call imports numpy.ma (about 8 ms): `time_order` on its inversion
    path, a `candidates` call joining a thermostat-due load and a fired
    clock, and a shipped `run` and `stats`, each in a fresh process."""
    script, expected = NUMPY_MA_PARTS[part]
    script = (
        "import json, sys\nimport numpy as np\nscenario, out = sys.argv[1:]\n" + script
        + 'print(json.dumps([result, "numpy.ma" in sys.modules]))\n'
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(SHIPPED_SCENARIO), str(tmp_path / "o")],
        capture_output=True, text=True, env=env, check=True,
    )
    result, imported = json.loads(proc.stdout.splitlines()[-1])
    assert result == expected
    assert not imported
