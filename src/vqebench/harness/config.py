"""Experiment configuration: JSON loading and the bundled toy problem."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
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
    phi_a: int
    phi_b: int
    families: tuple[FamilySpec, ...]
    optimizers: tuple[OptimizerSpec, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    theta0_policy: Theta0Policy = field(default_factory=Theta0Policy)

    def __post_init__(self):
        if not self.families:
            raise ParameterDomainError("config needs at least one family")
        if not self.optimizers:
            raise ParameterDomainError("config needs at least one optimizer")
        if not self.seeds:
            raise ParameterDomainError("config needs at least one seed")
        names = [f.name for f in self.families]
        if len(names) != len(set(names)):
            raise ParameterDomainError("family names must be unique")
        kinds = [o.kind for o in self.optimizers]
        if len(kinds) != len(set(kinds)):
            raise ParameterDomainError("optimizer kinds must be unique")


def _integer(value, what: str) -> int:
    """A JSON integer (an integral float counts) from the config."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParameterDomainError(f"{what} must be an integer, got {value!r}")


def _parse_noise_rule(obj: dict) -> NoiseRule:
    try:
        gates, kind = obj["gates"], obj["kind"]
    except KeyError as exc:
        raise ParameterDomainError(f"noise rule missing field {exc}") from None
    if not isinstance(gates, list):
        raise ParameterDomainError(f"noise rule gates must be a list of gate kinds, got {gates!r}")
    params = {k: v for k, v in obj.items() if k not in ("gates", "kind")}
    return NoiseRule(frozenset(gates), kind, **params)


def _parse_family(obj) -> FamilySpec:
    if isinstance(obj, str):
        return lookup_family(obj)
    if not isinstance(obj, dict):
        raise ParameterDomainError(f"family entry must be a name or object, got {obj!r}")
    try:
        name = obj["name"]
        mode = obj.get("mode", "shots" if "n_m" in obj else "exact")
    except KeyError as exc:
        raise ParameterDomainError(f"family missing field {exc}") from None
    noise = None
    if obj.get("noise"):
        noise = NoiseModel(tuple(_parse_noise_rule(r) for r in obj["noise"]))
    n_m = obj.get("n_m")
    if n_m is not None:
        n_m = _integer(n_m, f"family {name!r} n_m")
    return FamilySpec(name, EstimatorSpec(mode=mode, n_m=n_m, noise=noise))


def _parse_optimizer(obj) -> OptimizerSpec:
    if isinstance(obj, str):
        return OptimizerSpec(kind=obj)
    if not isinstance(obj, dict):
        raise ParameterDomainError(f"optimizer entry must be a kind or object, got {obj!r}")
    kwargs = dict(obj)
    isoma = kwargs.pop("isoma", None)
    if isoma is not None:
        kwargs["isoma"] = IsomaParams(**isoma)
    return OptimizerSpec(**kwargs)


def _parse_theta0(obj) -> Theta0Policy:
    if obj is None:
        return Theta0Policy()
    if isinstance(obj, str):
        return Theta0Policy(kind=obj)
    return Theta0Policy(**obj)


def config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build a config from parsed JSON.  Relative data paths resolve against
    base_dir (normally the config file's directory)."""
    try:
        ham = data["hamiltonian_path"]
        circ = data["circuit_path"]
        families = data["families"]
        optimizers = data["optimizers"]
    except KeyError as exc:
        raise ParameterDomainError(f"config missing field {exc}") from None
    if base_dir is not None:
        ham = str((base_dir / ham).resolve())
        circ = str((base_dir / circ).resolve())
    return ExperimentConfig(
        hamiltonian_path=ham,
        circuit_path=circ,
        phi_a=_integer(data.get("phi_a", 0), "phi_a"),
        phi_b=_integer(data.get("phi_b", 1), "phi_b"),
        families=tuple(_parse_family(f) for f in families),
        optimizers=tuple(_parse_optimizer(o) for o in optimizers),
        seeds=tuple(_integer(s, "seed") for s in data.get("seeds", DEFAULT_SEEDS)),
        theta0_policy=_parse_theta0(data.get("theta0_policy")),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterDomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterDomainError("config root must be a JSON object")
    try:
        return config_from_dict(data, base_dir=path.parent)
    except TypeError as exc:  # a field a spec does not take, or a value of the wrong type
        raise ParameterDomainError(f"malformed config {path}: {exc}") from None


def toy_problem_paths() -> tuple[str, str]:
    """Paths of the bundled two-qubit toy Hamiltonian and ansatz."""
    data = resources.files("vqebench") / "data"
    return str(data / "toy2q.ham"), str(data / "toy2q.circ")
