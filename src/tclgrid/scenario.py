"""Declarative scenario files (YAML) and their round-trippable mapping onto
simulator inputs.

A scenario document has sections: grid, population, scheme, disturbance,
horizon/seed/tolerances, and an optional design section controlling threshold
allocation and certification.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .design import AllocationResult, allocate_thresholds
from .grid_model import (
    GenDynamics,
    StateSpace,
    build_combined_system,
    default_gen_dynamics,
)
from .hybrid_sim import Scenario, valid_seed
from .tcl import Population, PopulationSpec, Scheme, sample_population


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class DesignSettings:
    delta: float = 0.001
    margin: float = 0.2
    allocate: bool = False
    threshold_range: tuple[float, float] = (0.01, 0.26)


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario document, prior to population sampling and threshold
    allocation."""

    grid_m: float
    grid_d: float
    gen: GenDynamics
    population: PopulationSpec
    scheme: Scheme
    disturbance: list[tuple[float, float]]
    horizon: float
    seed: int
    max_step: float = 0.01
    event_tol: float = 1e-6
    offset_demand: bool = True
    clamp_omega: bool = False
    design: DesignSettings = DesignSettings()

    def __post_init__(self):
        for name in ("horizon", "max_step", "event_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ScenarioError(f"{name} must be positive and finite, got {value}")
        for name, value in (("seed", self.seed), ("population.seed", self.population.seed)):
            if not valid_seed(value):
                raise ScenarioError(f"{name} must be an integer in [0, 2**64), got {value!r}")
        n_loads = self.population.n_loads
        if not isinstance(n_loads, numbers.Integral) or isinstance(n_loads, bool):
            raise ScenarioError(f"population.n_loads must be an integer, got {n_loads!r}")
        gen, ranges = self.gen, self.population.param_ranges or {}
        values = {
            "grid.m": self.grid_m,
            "grid.d": self.grid_d,
            "grid.gen.a_hat": gen.a_hat,
            "grid.gen.b_hat": gen.b_hat,
            "grid.gen.c_hat": gen.c_hat,
            "grid.gen.d_hat": gen.d_hat,
            "population.gamma": self.population.gamma,
            **{f"population.ranges.{name}": pair for name, pair in ranges.items()},
            "scheme.k_pi": self.scheme.k_pi,
            "scheme.v_des": self.scheme.v_des,
            "disturbance": self.disturbance,
            "design.delta": self.design.delta,
            "design.margin": self.design.margin,
            "design.threshold_range": self.design.threshold_range,
        }
        for name, value in values.items():
            value = np.asarray(value, dtype=float)
            if not np.all(np.isfinite(value)):
                raise ScenarioError(f"{name} must hold finite numbers, got {value.tolist()}")

    def build_grid(self) -> StateSpace:
        return build_combined_system(self.gen, self.grid_m, self.grid_d)

    def build_population(self) -> tuple[Population, AllocationResult | None]:
        from .grid_model import one_norm

        pop = sample_population(self.population)
        allocation = None
        if self.design.allocate:
            l_hat = one_norm(self.build_grid()).value
            allocation = allocate_thresholds(
                pop,
                l_hat,
                self.design.delta,
                margin=self.design.margin,
                threshold_range=self.design.threshold_range,
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
            event_tol=self.event_tol,
            offset_demand=self.offset_demand,
            clamp_omega=self.clamp_omega,
        )
        return sc, allocation


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
    if "preset" in doc.get("gen", {}) or "gen" not in doc:
        preset = doc.get("gen", {}).get("preset", "governor-integral")
        if preset != "governor-integral":
            raise ScenarioError(f"unknown gen preset {preset!r}")
        given = doc.get("gen", {})
        params = {name: float(given[name]) for name in ("t_g", "k_p", "k_i") if name in given}
        for name, value in params.items():
            if not (math.isfinite(value) and (name != "t_g" or value > 0)):
                raise ScenarioError(f"grid.gen.{name} must be finite (t_g positive), got {value}")
        return default_gen_dynamics(**params)
    gen = doc["gen"]
    try:
        return GenDynamics(
            a_hat=np.array(_require(gen, "a_hat", "grid.gen"), dtype=float),
            b_hat=np.array(_require(gen, "b_hat", "grid.gen"), dtype=float),
            c_hat=np.array(_require(gen, "c_hat", "grid.gen"), dtype=float),
            d_hat=float(gen.get("d_hat", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed matrix block in section 'grid.gen': {exc}") from exc


def parse_scheme(doc) -> Scheme:
    if isinstance(doc, str):
        doc = {"kind": doc}
    kind = _require(doc, "kind", "scheme")
    aliases = {
        "conventional": Scheme.conventional,
        "deterministic": Scheme.deterministic,
        "randomized": lambda: Scheme.randomized(
            k_pi=float(doc.get("k_pi", 5.0)), v_des=float(doc.get("v_des", 1.0))
        ),
        "randomized-high-gain": lambda: Scheme.randomized_high_gain(
            k_pi=float(doc.get("k_pi", 50.0)), v_des=float(doc.get("v_des", 1.0))
        ),
    }
    if kind not in aliases:
        raise ScenarioError(f"unknown scheme kind {kind!r}")
    return aliases[kind]()


def _mapping(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"section {section!r} must be a mapping, got {value!r}")
    return value


def _pair(value, name: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{name} must be a [low, high] pair, got {value!r}")
    try:
        return float(value[0]), float(value[1])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name} must be a pair of numbers, got {value!r}") from exc


def from_dict(doc: dict) -> ScenarioFile:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    grid = _mapping(_require(doc, "grid", "<root>"), "grid")
    popdoc = _mapping(_require(doc, "population", "<root>"), "population")
    ranges = popdoc.get("ranges")
    if ranges is not None:
        ranges = {
            k: _pair(v, f"population.ranges.{k}")
            for k, v in _mapping(ranges, "population.ranges").items()
        }
    design_doc = _mapping(doc.get("design", {}), "design")
    thr_range = _pair(design_doc.get("threshold_range", [0.01, 0.26]), "design.threshold_range")
    try:
        return ScenarioFile(
            grid_m=float(_require(grid, "m", "grid")),
            grid_d=float(_require(grid, "d", "grid")),
            gen=_parse_gen(grid),
            population=PopulationSpec(
                n_loads=_require(popdoc, "n_loads", "population"),
                gamma=float(_require(popdoc, "gamma", "population")),
                seed=_require(popdoc, "seed", "population"),
                param_ranges=ranges,
            ),
            scheme=parse_scheme(_require(doc, "scheme", "<root>")),
            disturbance=[
                (float(t), float(v)) for t, v in _require(doc, "disturbance", "<root>")
            ],
            horizon=float(_require(doc, "horizon", "<root>")),
            seed=_require(doc, "seed", "<root>"),
            max_step=float(doc.get("max_step", 0.01)),
            event_tol=float(doc.get("event_tol", 1e-6)),
            offset_demand=_flag(doc.get("offset_demand", True), "offset_demand"),
            clamp_omega=_flag(doc.get("clamp_omega", False), "clamp_omega"),
            design=DesignSettings(
                delta=float(design_doc.get("delta", 0.001)),
                margin=float(design_doc.get("margin", 0.2)),
                allocate=_flag(design_doc.get("allocate", False), "design.allocate"),
                threshold_range=thr_range,
            ),
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
        "event_tol": sf.event_tol,
        "offset_demand": sf.offset_demand,
        "clamp_omega": sf.clamp_omega,
        "design": {
            "delta": sf.design.delta,
            "margin": sf.design.margin,
            "allocate": sf.design.allocate,
            "threshold_range": list(sf.design.threshold_range),
        },
    }
    if sf.population.param_ranges:
        doc["population"]["ranges"] = {
            k: list(v) for k, v in sf.population.param_ranges.items()
        }
    return doc


def load_scenario_file(path: str | Path) -> ScenarioFile:
    text = Path(path).read_text()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc
    return from_dict(doc)


def dump_scenario_file(sf: ScenarioFile, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(to_dict(sf), sort_keys=True))


def scenario_hash(sf: ScenarioFile) -> str:
    """Content hash of the canonical serialized form, for manifest pinning."""
    canonical = yaml.safe_dump(to_dict(sf), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
