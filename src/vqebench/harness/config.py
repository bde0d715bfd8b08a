"""Experiment configuration: JSON loading and the bundled toy problem."""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from numbers import Real
from pathlib import Path

import numpy as np

from ..errors import ParameterDomainError, is_integer
from ..optimizers import IsomaParams, OptimizerSpec
from ..qsim import EstimatorSpec, NoiseModel, NoiseRule
from .catalog import FamilySpec, lookup_family

DEFAULT_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class Theta0Policy:
    """Initial-point policy: all zeros, or i.i.d. uniform in [low, high]."""

    kind: str = "zeros"  # "zeros" or "uniform"
    low: float = -2.0 * math.pi
    high: float = 2.0 * math.pi

    def __post_init__(self):
        if self.kind not in ("zeros", "uniform"):
            raise ParameterDomainError(f"unknown theta0 policy {self.kind!r}")
        if not -math.inf < self.low < self.high < math.inf:
            raise ParameterDomainError("theta0 policy bounds must be finite with low < high")

    def draw(self, n_params: int, rng):
        if self.kind == "zeros":
            return np.zeros(n_params)
        return rng.uniform(self.low, self.high, size=n_params)


@dataclass(frozen=True)
class ExperimentConfig:
    hamiltonian_path: str
    circuit_path: str
    families: tuple[FamilySpec, ...]
    optimizers: tuple[OptimizerSpec, ...]
    phi_a: int = 0
    phi_b: int = 1
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    theta0_policy: Theta0Policy = field(default_factory=Theta0Policy)

    def __post_init__(self):
        if not self.families:
            raise ParameterDomainError("config needs at least one family")
        if not self.optimizers:
            raise ParameterDomainError("config needs at least one optimizer")
        if not self.seeds:
            raise ParameterDomainError("config needs at least one seed")
        integers = (("phi_a", self.phi_a), ("phi_b", self.phi_b), *(("seed", s) for s in self.seeds))
        for what, value in integers:
            if not is_integer(value):
                raise ParameterDomainError(f"{what} must be an integer, got {value!r}")
        names = [f.name for f in self.families]
        if len(names) != len(set(names)):
            raise ParameterDomainError("family names must be unique")
        kinds = [o.kind for o in self.optimizers]
        if len(kinds) != len(set(kinds)):
            raise ParameterDomainError("optimizer kinds must be unique")
        if len(self.seeds) != len(set(self.seeds)):
            raise ParameterDomainError("seeds must be unique")


_JSON_SHAPES = {
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, Real) and not isinstance(value, bool),
    "list": lambda value: isinstance(value, list),
    "list of strings": lambda value: (
        isinstance(value, list) and all(isinstance(item, str) for item in value)
    ),
    "object": lambda value: isinstance(value, dict),
}


def _read(build, obj, what: str, **readers):
    """build(**obj).  obj must be a JSON object whose keys are build's
    parameters: a key build does not take, or a missing one it needs, is a
    config error that names the keys it takes.  A key with a reader, a
    (JSON shapes, convert) pair, must hold a value of one of those shapes,
    which convert turns into build's argument; a value too large to convert
    is a config error that names its key."""
    if not isinstance(obj, dict):
        raise ParameterDomainError(f"{what} must be a JSON object, got {obj!r}")
    params = inspect.signature(build).parameters
    takes = ", ".join(params)
    for key in obj:
        if key not in params:
            raise ParameterDomainError(f"{what} takes no {key!r}; it takes {takes}")
    for name, param in params.items():
        if param.default is param.empty and name not in obj:
            raise ParameterDomainError(f"{what} needs {name!r}; it takes {takes}")

    def read(key, value):
        if key not in readers:
            return value
        shapes, convert = readers[key]
        if not any(_JSON_SHAPES[shape](value) for shape in shapes):
            names = " or ".join(shapes)
            raise ParameterDomainError(f"{what} {key!r} must be a JSON {names}, got {value!r}")
        try:
            return convert(value)
        except OverflowError as exc:  # a JSON integer beyond a float's range
            raise ParameterDomainError(f"{what} {key!r} is out of range: {exc}") from exc

    return build(**{key: read(key, value) for key, value in obj.items()})


_STRING = (("string",), str)
_NUMBER = (("number",), float)


def _list_of(read):
    """A reader that takes a JSON list and builds each item with read."""
    return ("list",), lambda items: tuple(map(read, items))


def _noise_rule(obj) -> NoiseRule:
    numbers = dict.fromkeys(("lam", "p", "t1_ns", "t2_ns"), _NUMBER)
    gates = (("list of strings",), frozenset)
    return _read(NoiseRule, obj, "noise rule", gates=gates, kind=_STRING, **numbers)


def _inline_family(name: str, n_m: int | None = None, noise: tuple = ()) -> FamilySpec:
    """An inline family object: its name and its estimator's fields."""
    return FamilySpec(name, EstimatorSpec(n_m, NoiseModel(noise) if noise else None))


def _family(obj) -> FamilySpec:
    if isinstance(obj, str):
        return lookup_family(obj)
    return _read(_inline_family, obj, "family", name=_STRING, noise=_list_of(_noise_rule))


def _isoma(obj) -> IsomaParams:
    numbers = dict.fromkeys(("step", "var_min", "var_max", "prt"), _NUMBER)
    return _read(IsomaParams, obj, "isoma", **numbers)


def _optimizer(obj) -> OptimizerSpec:
    if isinstance(obj, str):
        return OptimizerSpec(kind=obj)
    isoma = (("object",), _isoma)
    return _read(OptimizerSpec, obj, "optimizer", ftol=_NUMBER, gradient_step=_NUMBER, isoma=isoma)


def _theta0(obj) -> Theta0Policy:
    if isinstance(obj, str):
        return Theta0Policy(kind=obj)
    return _read(Theta0Policy, obj, "theta0_policy", low=_NUMBER, high=_NUMBER)


def config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build a config from parsed JSON.  Relative data paths resolve against
    base_dir (normally the config file's directory)."""

    def path(value):
        return value if base_dir is None else str((base_dir / value).resolve())

    return _read(
        ExperimentConfig,
        data,
        "config",
        hamiltonian_path=(("string",), path),
        circuit_path=(("string",), path),
        families=_list_of(_family),
        optimizers=_list_of(_optimizer),
        seeds=(("list",), tuple),
        theta0_policy=(("string", "object"), _theta0),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterDomainError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data, base_dir=path.parent)


def toy_problem_paths() -> tuple[str, str]:
    """Paths of the bundled two-qubit toy Hamiltonian and ansatz."""
    data = resources.files("vqebench") / "data"
    return str(data / "toy2q.ham"), str(data / "toy2q.circ")
