import dataclasses

import numpy as np
import pytest
import yaml

from tclgrid.scenario import (
    ScenarioError,
    from_dict,
    load_scenario_file,
    parse_scheme,
    scenario_hash,
    to_dict,
)

MINIMAL = {
    "grid": {"m": 10.0, "d": 1.0},
    "population": {"n_loads": 5, "gamma": 0.05, "seed": 1},
    "scheme": "conventional",
    "disturbance": [[0.0, 0.0]],
    "horizon": 50.0,
    "seed": 2,
}


class TestParsing:
    def test_minimal_document(self):
        sf = from_dict(MINIMAL)
        assert sf.grid_m == 10.0
        assert sf.scheme.kind == "conventional"
        assert sf.max_step == 0.01
        assert sf.design.allocate is False

    def test_default_gen_preset_applied(self):
        sf = from_dict(MINIMAL)
        grid = sf.build_grid()
        assert grid.n == 2

    @pytest.mark.parametrize("t_g", [0.0, -5.0])
    def test_non_positive_governor_time_constant_rejected(self, t_g):
        gen = {"preset": "governor-integral", "t_g": t_g}
        doc = dict(MINIMAL, grid={"m": 10.0, "d": 1.0, "gen": gen})
        with pytest.raises(ScenarioError, match="grid.gen.t_g"):
            from_dict(doc)

    def test_explicit_matrices(self):
        doc = dict(MINIMAL)
        doc["grid"] = {
            "m": 2.0,
            "d": 0.5,
            "gen": {
                "a_hat": [[-1.0]],
                "b_hat": [-3.0],
                "c_hat": [1.0],
            },
        }
        sf = from_dict(doc)
        assert sf.build_grid().n == 1

    def test_missing_field_names_section(self):
        doc = {k: v for k, v in MINIMAL.items() if k != "horizon"}
        with pytest.raises(ScenarioError, match="horizon"):
            from_dict(doc)
        doc2 = dict(MINIMAL, population={"n_loads": 5, "seed": 1})
        with pytest.raises(ScenarioError, match="gamma"):
            from_dict(doc2)

    def test_malformed_matrix_reports_section(self):
        doc = dict(MINIMAL)
        doc["grid"] = {"m": 1.0, "d": 1.0, "gen": {"a_hat": "nonsense", "b_hat": [], "c_hat": []}}
        with pytest.raises(ScenarioError, match="grid.gen"):
            from_dict(doc)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scheme({"kind": "telepathic"})

    def test_scheme_aliases(self):
        assert parse_scheme("deterministic").kind == "deterministic"
        assert parse_scheme({"kind": "randomized", "k_pi": 7.0}).k_pi == 7.0
        assert parse_scheme("randomized-high-gain").k_pi == 50.0

    @pytest.mark.parametrize("field", ["horizon", "max_step", "event_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_times_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            from_dict(dict(MINIMAL, **{field: value}))
        with pytest.raises(ScenarioError, match=field):
            dataclasses.replace(from_dict(MINIMAL), **{field: value})

    @pytest.mark.parametrize("value", [-1, 2**64, 17.9, 17.0, True, "17"])
    @pytest.mark.parametrize("field", ["seed", "population.seed"])
    def test_bad_seed_rejected(self, field, value):
        doc = dict(MINIMAL, population=dict(MINIMAL["population"]))
        section = doc["population"] if field == "population.seed" else doc
        section["seed"] = value
        with pytest.raises(ScenarioError, match=field):
            from_dict(doc)

    def test_seed_override_checked(self):
        sf = from_dict(MINIMAL)
        with pytest.raises(ScenarioError, match="seed"):
            dataclasses.replace(sf, seed=-1)
        with pytest.raises(ScenarioError, match="population.seed"):
            dataclasses.replace(sf, population=dataclasses.replace(sf.population, seed=-1))

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            sf = from_dict(dict(MINIMAL, seed=seed))
            assert sf.seed == seed
            assert sf.build_scenario()[0].seed == seed

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
    def test_non_integer_load_count_rejected(self, value):
        doc = dict(MINIMAL, population=dict(MINIMAL["population"], n_loads=value))
        with pytest.raises(ScenarioError, match="n_loads"):
            from_dict(doc)

    @pytest.mark.parametrize("value", ["false", "no", 1])
    @pytest.mark.parametrize("field", ["offset_demand", "clamp_omega", "design.allocate"])
    def test_non_boolean_flag_rejected(self, field, value):
        doc = dict(MINIMAL, design={})
        section = doc["design"] if field == "design.allocate" else doc
        section[field.rsplit(".", 1)[-1]] = value
        with pytest.raises(ScenarioError, match=field):
            from_dict(doc)

    def test_yaml_boolean_flags_parsed(self):
        text = yaml.safe_dump(MINIMAL) + "clamp_omega: yes\noffset_demand: no\n"
        sf = from_dict(yaml.safe_load(text + "design: {allocate: false}\n"))
        assert sf.clamp_omega is True
        assert sf.offset_demand is False
        assert sf.design.allocate is False

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            from_dict(["not", "a", "mapping"])


class TestRoundTrip:
    def test_dict_round_trip_preserves_hash(self):
        sf = from_dict(MINIMAL)
        again = from_dict(to_dict(sf))
        assert scenario_hash(sf) == scenario_hash(again)

    def test_shipped_scenario_round_trip(self, shipped_file):
        again = from_dict(to_dict(shipped_file))
        assert scenario_hash(shipped_file) == scenario_hash(again)

    def test_hash_sensitive_to_changes(self):
        sf = from_dict(MINIMAL)
        other = from_dict(dict(MINIMAL, seed=3))
        assert scenario_hash(sf) != scenario_hash(other)


class TestShippedScenario:
    def test_loads_and_builds(self, shipped_file):
        assert shipped_file.population.n_loads == 500
        assert shipped_file.scheme.kind == "deterministic"
        assert shipped_file.design.allocate

    def test_allocation_certifies(self, shipped_file):
        pop, allocation = shipped_file.build_population()
        assert allocation is not None
        assert allocation.report.satisfied
        assert len(pop) == 500

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unclosed")
        with pytest.raises(ScenarioError):
            load_scenario_file(path)
