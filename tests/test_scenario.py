import copy
import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tclgrid import scenario
from tclgrid.design import DesignSettings
from tclgrid.hybrid_sim import Scenario
from tclgrid.scenario import (
    ScenarioError,
    ScenarioFile,
    from_dict,
    load_scenario_file,
    parse_scheme,
    scenario_hash,
    to_dict,
    yaml_pair,
)
from tclgrid.tcl import Scheme, TclError

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

    def test_absent_optional_fields_take_the_dataclass_defaults(self):
        sf = from_dict(MINIMAL)
        for field in dataclasses.fields(ScenarioFile):
            if field.default is not dataclasses.MISSING:
                assert getattr(sf, field.name) == field.default, field.name
        assert sf.max_step == 0.01
        assert sf.design == DesignSettings(0.001, 0.2, False)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field, rule", [("m", "inertia m"), ("d", "damping d")])
    def test_non_positive_inertia_or_damping_rejected_at_load(self, field, rule, value):
        with pytest.raises(ScenarioError, match=f"{rule} must be positive, got {value}"):
            from_dict(dict(MINIMAL, grid=dict(MINIMAL["grid"], **{field: value})))
        with pytest.raises(ScenarioError, match=f"{rule} must be positive"):
            dataclasses.replace(from_dict(MINIMAL), **{f"grid_{field}": value})

    @pytest.mark.parametrize(
        "grid, refused",
        [({"a_hat": [[-1.0]], "b_hat": [0.0], "c_hat": [1.0]}, True),  # a stable Jordan block
         ({"a_hat": [[1.0]], "b_hat": [0.0], "c_hat": [1.0], "d_hat": 2.0}, False),  # unstable
         ({"a_hat": [[0.0]], "b_hat": [0.0], "c_hat": [0.0]}, False)],  # a zero eigenvalue
        ids=["jordan", "unstable", "singular"],
    )
    def test_hurwitz_grid_without_modes_rejected_at_load(self, grid, refused):
        # the simulator and the 1-norm need the modal form; a grid that is
        # not Hurwitz (an unstable Jordan block, or a zero eigenvalue) loads,
        # and fails the Hurwitz test of its command
        doc = dict(MINIMAL, grid={"m": 1.0, "d": 1.0, "gen": grid})
        if refused:
            with pytest.raises(ScenarioError, match="^grid: the grid has no well-conditioned modal"):
                from_dict(doc)
        else:
            from_dict(doc)

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

    @pytest.mark.parametrize(
        "key, flag, number",
        [("a_hat", [[True]], [[1.0]]), ("b_hat", [True], [1.0]), ("c_hat", [False], [0.0]),
         ("d_hat", True, 1.0)],
    )
    def test_matrix_block_refuses_bool(self, key, flag, number):
        # float(True) is 1.0, so a bool would load as that number; each grid
        # the numbers build has a modal form (a_hat -1 with c_hat 0 is a
        # Jordan block, which is refused)
        gen = {"a_hat": [[-2.0]], "b_hat": [1.0], "c_hat": [1.0], "d_hat": 0.0}
        grid = {"m": 1.0, "d": 1.0, "gen": {**gen, key: flag}}
        with pytest.raises(ScenarioError, match=rf"^grid\.gen\.{key} must hold numbers, got "):
            from_dict(dict(MINIMAL, grid=grid))
        grid["gen"][key] = number
        from_dict(dict(MINIMAL, grid=grid))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scheme({"kind": "telepathic"})

    def test_scheme_aliases(self):
        assert parse_scheme("deterministic").kind == "deterministic"
        assert parse_scheme({"kind": "randomized", "k_pi": 7.0}).k_pi == 7.0
        assert parse_scheme("randomized-high-gain").k_pi == 50.0

    @pytest.mark.parametrize("field, value", [("k_pi", 7.0), ("v_des", 3.0)])
    @pytest.mark.parametrize("kind", ["conventional", "deterministic"])
    def test_rate_field_of_non_randomized_scheme_rejected(self, kind, field, value):
        # a rate field the kind would ignore fails by name instead of
        # loading as its default
        with pytest.raises(ScenarioError, match=f"{field} applies only to the randomized scheme"):
            from_dict(dict(MINIMAL, scheme={"kind": kind, field: value}))
        with pytest.raises(TclError, match=field):
            Scheme(kind, **{field: value})
        # the values to_dict writes for these kinds still load
        sf = from_dict(dict(MINIMAL, scheme={"kind": kind, "k_pi": 0.0, "v_des": 1.0}))
        assert sf.scheme == Scheme(kind)

    @pytest.mark.parametrize("field", ["horizon", "max_step"])
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
    @pytest.mark.parametrize("field", ["design.allocate"])
    def test_non_boolean_flag_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            from_dict(dict(MINIMAL, design={"allocate": value}))

    @pytest.mark.parametrize(
        "path, field",
        [
            (["horizon"], "horizon"),
            (["max_step"], "max_step"),
            (["grid", "m"], "grid.m"),
            (["grid", "d"], "grid.d"),
            (["grid", "gen", "k_p"], "grid.gen.k_p"),
            (["population", "gamma"], "population.gamma"),
            (["population", "ranges", "t_amb", 0], "population.ranges.t_amb"),
            (["design", "delta"], "design.delta"),
            (["design", "margin"], "design.margin"),
            (["scheme", "k_pi"], "scheme.k_pi"),
            (["scheme", "v_des"], "scheme.v_des"),
            (["disturbance", 1, 1], "disturbance"),
        ],
    )
    @pytest.mark.parametrize("value", ["true", "false"])
    def test_yaml_boolean_in_number_field_rejected(self, path, field, value):
        # a YAML true or false is not read as 1.0 or 0.0: the field is named
        doc = dict(
            MINIMAL,
            grid={"m": 10.0, "d": 1.0, "gen": {"preset": "governor-integral", "k_p": 20.0}},
            population=dict(MINIMAL["population"], ranges={"t_amb": [20.0, 30.0]}),
            scheme={"kind": "randomized", "k_pi": 5.0, "v_des": 1.0},
            disturbance=[[0.0, 0.0], [1.0, 0.5]],
            design={"delta": 0.001, "margin": 0.2},
            max_step=0.01,
        )
        doc = yaml.safe_load(yaml.safe_dump(doc))
        from_dict(doc)
        *parents, key = path
        section = doc
        for name in parents:
            section = section[name]
        section[key] = yaml.safe_load(value)
        with pytest.raises(ScenarioError, match=rf"^{field} must be a number, got {value.title()}$"):
            from_dict(doc)

    def test_number_fields_read_strings(self):
        # PyYAML loads 1e-3 (no dot) as a string, which float reads
        text = yaml.safe_dump(MINIMAL) + "max_step: 1e-3\n"
        doc = yaml.safe_load(text)
        assert doc["max_step"] == "1e-3"
        assert from_dict(doc).max_step == 0.001

    def test_yaml_boolean_flags_parsed(self):
        text = yaml.safe_dump(MINIMAL) + "design: {allocate: no}\n"
        assert from_dict(yaml.safe_load(text)).design.allocate is False

    def test_allocation_fills_the_drawn_range(self):
        # one omega1 range: the allocator places every threshold inside the
        # range the thresholds are drawn from, its bottom for the first load
        population = dict(MINIMAL["population"], ranges={"omega1": [0.05, 0.2]})
        sf = from_dict(dict(MINIMAL, population=population, design={"allocate": True}))
        pop, allocation = sf.build_population()
        assert allocation.report.satisfied
        assert pop.omega1[0] == 0.05
        assert np.all((pop.omega1 >= 0.05) & (pop.omega1 <= 0.2))

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            from_dict(["not", "a", "mapping"])

    @pytest.mark.parametrize(
        "path, key",
        [
            ([], "max_stepp"),
            ([], "event_tol"),
            ([], "clamp_omega"),
            ([], "offset_demand"),
            (["grid"], "inertia"),
            (["grid", "gen"], "t_gov"),
            (["population"], "n_load"),
            (["population", "ranges"], "t_ambient"),
            (["scheme"], "kpi"),
            (["design"], "deltas"),
            (["design"], "threshold_range"),
        ],
        ids=[
            "root", "root-retired", "root-retired-clamp", "root-retired-offset", "grid",
            "grid.gen", "population", "ranges", "scheme", "design", "design-retired-range",
        ],
    )
    def test_unknown_field_rejected(self, path, key):
        # a misspelled or retired field fails by name instead of leaving
        # its default in force
        doc = dict(
            MINIMAL,
            grid={"m": 10.0, "d": 1.0, "gen": {"preset": "governor-integral"}},
            population=dict(MINIMAL["population"], ranges={"k": [2e-4, 1e-3]}),
            scheme={"kind": "randomized"},
            design={},
        )
        doc = yaml.safe_load(yaml.safe_dump(doc))
        section = doc
        for name in path:
            section = section[name]
        section[key] = 0.5
        section_name = ".".join(path) or "<root>"
        with pytest.raises(ScenarioError, match=f"unknown field '{key}' in section '{section_name}'"):
            from_dict(doc)

    def test_unknown_matrix_field_rejected(self):
        gen = {"a_hat": [[-1.0]], "b_hat": [1.0], "c_hat": [1.0], "preset_name": "x"}
        with pytest.raises(ScenarioError, match="'preset_name' in section 'grid.gen'"):
            from_dict(dict(MINIMAL, grid={"m": 10.0, "d": 1.0, "gen": gen}))


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

    def test_ranges_round_trip(self):
        ranges = {"t_amb": [18.0, 22.0], "eps": [0.002, 0.004]}
        population = dict(MINIMAL["population"], ranges=ranges)
        sf = from_dict(dict(MINIMAL, population=population))
        again = from_dict(to_dict(sf))
        assert again.population.param_ranges == {k: tuple(v) for k, v in ranges.items()}
        assert scenario_hash(again) == scenario_hash(sf)
        # the hash moves when a range changes or the ranges are dropped
        wider = dict(population, ranges=dict(ranges, eps=[0.002, 0.005]))
        assert scenario_hash(from_dict(dict(MINIMAL, population=wider))) != scenario_hash(sf)
        assert scenario_hash(from_dict(MINIMAL)) != scenario_hash(sf)


def float_slots(doc: dict, keys=()):
    """The keys and list index of each float of a to_dict document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from float_slots(value, (*keys, key))
        elif isinstance(value, list):
            yield from (((*keys, key), index) for index in np.ndindex(np.shape(value)))
        elif isinstance(value, float):
            yield (*keys, key), ()


class TestShippedScenario:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_float_must_be_finite_and_is_named(self, shipped_file, value):
        base = to_dict(shipped_file)
        base["population"]["ranges"] = {"eps": [0.002, 0.004]}
        slots = list(float_slots(base))
        # m, d, gen 4 + 2 + 2 + 1, gamma, a range pair, k_pi, v_des, the
        # disturbance 4, horizon, max_step, delta, margin
        assert len(slots) == 24
        for keys, index in slots:
            doc = copy.deepcopy(base)
            *outer, last = (*keys, *index)
            section = doc
            for step in outer:
                section = section[step]
            section[last] = value
            with pytest.raises(ScenarioError) as info:
                from_dict(doc)
            assert str(info.value).startswith(".".join(keys)), (index, str(info.value))

    def test_hash_is_pinned(self, shipped_file):
        # the manifest's scenario_sha256 of every shipped run
        assert scenario_hash(shipped_file) == (
            "78e378a782b3bb0626cbf3b247575f93ab38ead8610165bbc664c7e929f430ee"
        )

    def test_loads_and_builds(self, shipped_file):
        assert shipped_file.population.n_loads == 500
        assert shipped_file.scheme.kind == "deterministic"
        assert shipped_file.design.allocate

    def test_allocation_certifies(self, shipped_file):
        pop, allocation = shipped_file.build_population()
        assert allocation is not None
        assert allocation.report.satisfied
        assert len(pop) == 500

    def test_document_fills_every_scenario_field(self, shipped_file, monkeypatch):
        # a run is fixed by its document and seed: build_scenario gives each
        # of Scenario's fields from the document, and Scenario has no other
        given = {}

        def recorded(**fields):
            given.update(fields)
            return Scenario(**fields)

        monkeypatch.setattr(scenario, "Scenario", recorded)
        shipped_file.build_scenario()
        assert set(given) == {f.name for f in dataclasses.fields(Scenario)}

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unclosed")
        with pytest.raises(ScenarioError):
            load_scenario_file(path)


# the two YAML pairs: libyaml's scanner, parser and emitter, which PyYAML
# may be built without, and the pure-Python ones
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
PAIRS = [pytest.param(True, id="libyaml", marks=needs_libyaml), pytest.param(False, id="python")]

# documents shaped as to_dict's: identifier keys; floats at the ends of the
# double range, subnormal, signed zero and infinite; integers at and past
# 2**63; booleans; and strings, among them ones that read as a bool, null,
# number, date or mapping unless quoted
KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True)
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [5e-324, -5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7, 0.1]
)
INTS = st.integers() | st.sampled_from([2**63 - 1, 2**63, -(2**63), 2**64])
STRINGS = st.sampled_from(
    ["yes", "No", "on", "off", "true", "False", "null", "~", "", " lead", "tail ", "a: b",
     ":", "- x", "#x", "1e-3", "0x1f", "0o17", "1_000", ".inf", "-.nan", "2001-12-14"]
) | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=100)
CANONICAL = st.dictionaries(
    KEYS,
    st.recursive(
        FLOATS | INTS | st.booleans() | STRINGS,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=5),
        max_leaves=25,
    ),
    max_size=8,
)


class TestYamlPairs:
    @needs_libyaml
    @settings(max_examples=300, deadline=None)
    @given(CANONICAL)
    def test_the_pairs_dump_the_same_bytes_and_load_the_same_documents(self, doc):
        (c_loader, c_dumper), (py_loader, py_dumper) = yaml_pair(True), yaml_pair(False)
        text = yaml.dump(doc, Dumper=c_dumper, sort_keys=True)
        assert text == yaml.dump(doc, Dumper=py_dumper, sort_keys=True)
        loaded = yaml.load(text, Loader=c_loader)
        assert repr(loaded) == repr(yaml.load(text, Loader=py_loader))  # -0.0 too
        assert loaded == doc

    @pytest.mark.parametrize("libyaml", PAIRS)
    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("horizon: 30.0\nseed: 2\nhorizon: 5.0\n", "horizon", 3),
            ("grid:\n  m: 10.0\n  d: 1.0\n  m: 5.0\n", "m", 4),
            ("grid:\n  gen: {t_g: 5.0, k_p: 20.0,\n    t_g: 2.0}\n", "t_g", 3),
            ("disturbance:\n  - {a: 1}\n  - {b: 1, b: 2}\n", "b", 3),
            # 1 == 1.0, so a dict holds one of them
            ("population:\n  1: x\n  1.0: y\n", "1.0", 3),
        ],
        ids=["root", "section", "flow", "in-list", "equal-numbers"],
    )
    def test_duplicate_key_rejected(self, tmp_path, monkeypatch, libyaml, text, key, line):
        # PyYAML keeps the last of two equal keys; both pairs refuse the document
        monkeypatch.setattr(scenario, "LOADER", yaml_pair(libyaml)[0])
        path = tmp_path / "duplicate.yaml"
        path.write_text(text)
        with pytest.raises(ScenarioError) as info:
            load_scenario_file(path)
        assert str(info.value) == (
            f"cannot parse scenario file {path}: duplicate key {key!r} at line {line}"
        )

    @pytest.mark.parametrize("libyaml", PAIRS)
    def test_merged_key_given_again_is_no_duplicate(self, libyaml):
        # a key of a mapping overrides the one a merge key brings in
        text = "base: &base {m: 1.0, d: 1.0}\ngrid:\n  <<: *base\n  m: 10.0\n"
        doc = yaml.load(text, Loader=yaml_pair(libyaml)[0])
        assert doc["grid"] == {"m": 10.0, "d": 1.0}
