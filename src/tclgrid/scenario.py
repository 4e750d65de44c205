"""Declarative scenario files (YAML) and their round-trippable mapping onto
simulator inputs.

A scenario document has sections: grid, population, scheme, disturbance,
horizon/seed/max_step, and an optional design section controlling threshold
allocation and certification.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .design import AllocationResult, DesignSettings, allocate_thresholds
from .grid_model import (
    NO_MODAL_FORM,
    GenDynamics,
    GridModelError,
    StateSpace,
    build_combined_system,
    default_gen_dynamics,
    is_hurwitz,
)
from .hybrid_sim import SCHEME_CASES, Scenario, SimulationError, check_run_settings, check_seed
from .tcl import DEFAULT_RANGES, Population, PopulationSpec, Scheme, TclError, sample_population


class ScenarioError(ValueError):
    pass


def yaml_pair(libyaml: bool = yaml.__with_libyaml__):
    """Scenario documents' loader and dumper: libyaml's when PyYAML has it, else the
    Python ones. Both use PyYAML's Python resolver, constructor and representer, so
    they give the same documents and bytes. The loader refuses a key given twice."""
    base, dumper = (yaml.CSafeLoader, yaml.CSafeDumper) if libyaml else (yaml.SafeLoader, yaml.SafeDumper)

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            mapping, first = super().construct_mapping(node, deep), {}
            for key in own:  # each constructed, and cached, by the super call
                if first.setdefault(self.construct_object(key), key) is not key:
                    raise ScenarioError(f"duplicate key {key.value!r} at line {key.start_mark.line + 1}")
            return mapping
    return Loader, dumper


LOADER, DUMPER = yaml_pair()


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario document, prior to population sampling and threshold
    allocation. The run settings take Scenario's defaults and rules, and the
    grid is built here once, so a rule of Scenario or of the grid fails at
    load, as a ScenarioError, and every command uses that one grid and its
    one modal decomposition. A Hurwitz grid without a modal form is refused
    here; a grid that is not Hurwitz fails the Hurwitz test of the command
    that needs it, a numeric error."""

    grid_m: float
    grid_d: float
    gen: GenDynamics
    population: PopulationSpec
    scheme: Scheme
    disturbance: list[tuple[float, float]]
    horizon: float
    seed: int
    max_step: float = Scenario.max_step
    design: DesignSettings = DesignSettings()
    _grid: StateSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            check_run_settings(self.horizon, self.max_step, self.seed, self.disturbance)
            check_seed(self.population.seed, "population.seed")
            grid = build_combined_system(self.gen, self.grid_m, self.grid_d)
            object.__setattr__(self, "_grid", grid)
        except SimulationError as exc:
            raise ScenarioError(str(exc)) from None
        except GridModelError as exc:  # the m or d rule: a built gen fits its grid
            raise ScenarioError(f"grid.{exc.field}: {exc}") from None
        n_loads = self.population.n_loads
        if type(n_loads) is bool or not isinstance(n_loads, numbers.Integral) or n_loads >= 2**63:
            raise ScenarioError(f"population.n_loads must be an integer < 2**63, got {n_loads!r}")
        for name, value in _float_leaves(to_dict(self)):
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ScenarioError(f"{name} must hold finite numbers, got {value}")
        # after the finite-number rule, since a NaN grid has no modes either
        if self._grid.modes is None and is_hurwitz(self._grid):
            raise ScenarioError(f"grid: {NO_MODAL_FORM}")

    def build_grid(self) -> StateSpace:
        return self._grid

    def build_population(self) -> tuple[Population, AllocationResult | None]:
        # looked up at call time, so a wrapper set on grid_model.one_norm sees the call
        from .grid_model import one_norm

        try:
            pop = sample_population(self.population)
        except TclError as exc:  # a rule of the range box leads with its section, as a field's does
            raise TclError(f"population.ranges: {exc}") if str(exc).startswith("range") else exc
        allocation = None
        if self.design.allocate:
            l_hat = one_norm(self.build_grid()).value
            allocation = allocate_thresholds(
                pop,
                l_hat,
                self.design.delta,
                margin=self.design.margin,
                threshold_range=self.population.ranges()["omega1"],
            )
            pop = allocation.population
        return pop, allocation

    def build_scenario(self) -> tuple[Scenario, AllocationResult | None]:
        pop, allocation = self.build_population()
        sc = Scenario(
            grid=self.build_grid(),
            population=pop,
            scheme=self.scheme,
            disturbance=list(self.disturbance),
            horizon=self.horizon,
            seed=self.seed,
            max_step=self.max_step,
        )
        return sc, allocation


def _float_leaves(doc: dict, prefix: str = ""):
    """The dotted path and value of each float of a to_dict document, a list
    taken whole; integers (n_loads, the seeds), flags and strings are not."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _float_leaves(value, f"{prefix}{key}.")
        elif not isinstance(value, (str, numbers.Integral)):
            yield prefix + key, value


def _require(doc: dict, key: str, section: str):
    if key not in doc:
        raise ScenarioError(f"missing field {key!r} in section {section!r}")
    return doc[key]


def _flag(value, name: str) -> bool:
    """A YAML boolean; a string such as "false" or a number is rejected
    rather than coerced, since bool("false") is True."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{name} must be a boolean (true or false), got {value!r}")
    return value


def _parse_gen(doc: dict) -> GenDynamics:
    if "gen" not in doc or "preset" in doc["gen"]:
        given = _fields(doc.get("gen", {}), "grid.gen", ("preset", "t_g", "k_p", "k_i"))
        preset = given.get("preset", "governor-integral")
        if preset != "governor-integral":
            raise ScenarioError(f"unknown gen preset {preset!r}")
        params = {k: _number(v, f"grid.gen.{k}") for k, v in given.items() if k != "preset"}
        for name, value in params.items():
            if not (math.isfinite(value) and (name != "t_g" or value > 0)):
                raise ScenarioError(f"grid.gen.{name} must be finite (t_g positive), got {value}")
        return default_gen_dynamics(**params)
    gen = _fields(doc["gen"], "grid.gen", ("a_hat", "b_hat", "c_hat", "d_hat"))
    for key in ("a_hat", "b_hat", "c_hat"):
        _require(gen, key, "grid.gen")
    for key, value in gen.items():  # float(True) is 1.0, so a bool is refused as in _number
        if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
            raise ScenarioError(f"grid.gen.{key} must hold numbers, got {value!r}")
    try:
        return GenDynamics(**gen)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed matrix block in section 'grid.gen': {exc}") from exc


def parse_scheme(doc) -> Scheme:
    if isinstance(doc, str):
        doc = {"kind": doc}
    kind = _require(_fields(doc, "scheme", ("kind", "k_pi", "v_des")), "kind", "scheme")
    # kind names one of the SCHEME_CASES, whose k_pi and v_des are the
    # defaults; given ones pass through for every kind, so Scheme rejects the
    # ones a kind would ignore
    named = dict(SCHEME_CASES).get(kind)
    if named is None:
        raise ScenarioError(f"unknown scheme kind {kind!r}")
    given = {key: _number(doc[key], f"scheme.{key}") for key in ("k_pi", "v_des") if key in doc}
    try:
        return replace(named, **given)
    except TclError as exc:  # a rate rule of Scheme, its message led by the field
        raise ScenarioError(f"scheme.{exc}") from None


def _fields(value, section: str, known) -> dict:
    """A mapping holding no key outside known, so a misspelled or retired
    field fails instead of being ignored."""
    if not isinstance(value, dict):
        raise ScenarioError(f"section {section!r} must be a mapping, got {value!r}")
    unknown = [key for key in value if key not in known]
    if unknown:
        raise ScenarioError(f"unknown field {unknown[0]!r} in section {section!r}")
    return value


def _pair(value, name: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{name} must be a pair of numbers, got {value!r}")
    return _number(value[0], name), _number(value[1], name)


def _number(value, name: str) -> float:
    if isinstance(value, bool):  # not 1.0 or 0.0; a string (PyYAML loads 1e-3 as one) is read
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name}: {exc}") from None


# the optional fields of the root and of the design section, each with its
# parser; a field the document leaves out keeps its dataclass default
OPTIONAL_FIELDS = {"max_step": _number}
DESIGN_FIELDS = {"delta": _number, "margin": _number, "allocate": _flag}
ROOT_FIELDS = (
    "grid", "population", "scheme", "disturbance", "horizon", "seed", "design", *OPTIONAL_FIELDS,
)


def _given(doc: dict, fields: dict, prefix: str = "") -> dict:
    """Each key of fields that doc holds, mapped through its parser."""
    return {key: parse(doc[key], prefix + key) for key, parse in fields.items() if key in doc}


def from_dict(doc: dict) -> ScenarioFile:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _fields(doc, "<root>", ROOT_FIELDS)
    grid = _fields(_require(doc, "grid", "<root>"), "grid", ("m", "d", "gen"))
    popdoc = _fields(
        _require(doc, "population", "<root>"), "population", ("n_loads", "gamma", "seed", "ranges")
    )
    ranges = popdoc.get("ranges")
    if ranges is not None:
        ranges = {
            k: _pair(v, f"population.ranges.{k}")
            for k, v in _fields(ranges, "population.ranges", DEFAULT_RANGES).items()
        }
    design = _fields(doc.get("design", {}), "design", DESIGN_FIELDS)
    try:
        return ScenarioFile(
            grid_m=_number(_require(grid, "m", "grid"), "grid.m"),
            grid_d=_number(_require(grid, "d", "grid"), "grid.d"),
            gen=_parse_gen(grid),
            population=PopulationSpec(
                n_loads=_require(popdoc, "n_loads", "population"),
                gamma=_number(_require(popdoc, "gamma", "population"), "population.gamma"),
                seed=_require(popdoc, "seed", "population"),
                param_ranges=ranges,
            ),
            scheme=parse_scheme(_require(doc, "scheme", "<root>")),
            disturbance=[_pair(p, "disturbance") for p in _require(doc, "disturbance", "<root>")],
            horizon=_number(_require(doc, "horizon", "<root>"), "horizon"),
            seed=_require(doc, "seed", "<root>"),
            design=DesignSettings(**_given(design, DESIGN_FIELDS, "design.")),
            **_given(doc, OPTIONAL_FIELDS),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc


def to_dict(sf: ScenarioFile) -> dict:
    gen = sf.gen
    doc = {
        "grid": {
            "m": sf.grid_m,
            "d": sf.grid_d,
            "gen": {
                "a_hat": [[float(v) for v in row] for row in gen.a_hat],
                "b_hat": [float(v) for v in gen.b_hat],
                "c_hat": [float(v) for v in gen.c_hat],
                "d_hat": float(gen.d_hat),
            },
        },
        "population": {
            "n_loads": sf.population.n_loads,
            "gamma": sf.population.gamma,
            "seed": sf.population.seed,
        },
        "scheme": {"kind": sf.scheme.kind, "k_pi": sf.scheme.k_pi, "v_des": sf.scheme.v_des},
        "disturbance": [[t, v] for t, v in sf.disturbance],
        "horizon": sf.horizon,
        "seed": sf.seed,
        "max_step": sf.max_step,
        "design": {
            "delta": sf.design.delta,
            "margin": sf.design.margin,
            "allocate": sf.design.allocate,
        },
    }
    if sf.population.param_ranges:
        doc["population"]["ranges"] = {
            k: list(v) for k, v in sf.population.param_ranges.items()
        }
    return doc


def load_scenario_file(path: str | Path, **settings) -> ScenarioFile:
    """The scenario of the file, with the given root settings (a command
    line's seed, horizon or scheme) in place of the document's; a setting of
    None is not given."""
    text = Path(path).read_text()
    try:
        doc = yaml.load(text, Loader=LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer of over 4300 digits
        raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc
    if isinstance(doc, dict):
        doc.update((key, value) for key, value in settings.items() if value is not None)
    return from_dict(doc)


def scenario_hash(sf: ScenarioFile) -> str:
    """Content hash of the canonical serialized form, for manifest pinning."""
    canonical = yaml.dump(to_dict(sf), Dumper=DUMPER, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
