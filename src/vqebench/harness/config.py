"""Experiment configuration: JSON loading and the bundled toy problem."""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from numbers import Integral
from pathlib import Path

import numpy as np

from ..errors import ParameterDomainError
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
        if self.low >= self.high:
            raise ParameterDomainError("theta0 policy bounds must satisfy low < high")

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
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ParameterDomainError(f"{what} must be an integer, got {value!r}")
        names = [f.name for f in self.families]
        if len(names) != len(set(names)):
            raise ParameterDomainError("family names must be unique")
        kinds = [o.kind for o in self.optimizers]
        if len(kinds) != len(set(kinds)):
            raise ParameterDomainError("optimizer kinds must be unique")


def _read(build, obj, what: str, **readers):
    """build(**obj), each value first passed through its key's reader if it
    has one.  obj must be a JSON object whose keys are build's parameters: a
    key build does not take, or a missing one it needs, is a config error
    that names the keys it takes."""
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
    return build(**{key: readers[key](v) if key in readers else v for key, v in obj.items()})


def _gate_set(gates) -> frozenset:
    if not isinstance(gates, list):
        raise ParameterDomainError(f"noise rule gates must be a list of gate kinds, got {gates!r}")
    return frozenset(gates)


def _noise_model(rules) -> NoiseModel | None:
    if not rules:
        return None
    return NoiseModel(tuple(_read(NoiseRule, r, "noise rule", gates=_gate_set) for r in rules))


def _inline_family(name: str, n_m: int | None = None, noise: list | None = None) -> FamilySpec:
    """An inline family object: its name and its estimator's fields."""
    return FamilySpec(name, EstimatorSpec(n_m, _noise_model(noise)))


def _family(obj) -> FamilySpec:
    if isinstance(obj, str):
        return lookup_family(obj)
    return _read(_inline_family, obj, "family")


def _optimizer(obj) -> OptimizerSpec:
    if isinstance(obj, str):
        return OptimizerSpec(kind=obj)
    return _read(OptimizerSpec, obj, "optimizer", isoma=lambda o: _read(IsomaParams, o, "isoma"))


def _theta0(obj) -> Theta0Policy:
    if isinstance(obj, str):
        return Theta0Policy(kind=obj)
    return _read(Theta0Policy, obj, "theta0_policy")


def config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build a config from parsed JSON.  Relative data paths resolve against
    base_dir (normally the config file's directory)."""

    def path(value):
        return value if base_dir is None else str((base_dir / value).resolve())

    return _read(
        ExperimentConfig,
        data,
        "config",
        hamiltonian_path=path,
        circuit_path=path,
        families=lambda objs: tuple(map(_family, objs)),
        optimizers=lambda objs: tuple(map(_optimizer, objs)),
        seeds=tuple,
        theta0_policy=_theta0,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterDomainError(f"cannot read config {path}: {exc}") from exc
    try:
        return config_from_dict(data, base_dir=path.parent)
    except TypeError as exc:  # a value of the wrong type
        raise ParameterDomainError(f"malformed config {path}: {exc}") from None


def toy_problem_paths() -> tuple[str, str]:
    """Paths of the bundled two-qubit toy Hamiltonian and ansatz."""
    data = resources.files("vqebench") / "data"
    return str(data / "toy2q.ham"), str(data / "toy2q.circ")
