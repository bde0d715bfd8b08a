"""The 21-family noise catalog."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterDomainError
from ..qsim import EstimatorSpec, NoiseModel, NoiseRule
from ..qsim.circuits import GATE_KINDS

#: Shot count used by every noisy family, chosen large enough that sampling
#: noise plays a minor role next to the channel under study.
NOISY_SHOTS = 6144

_DEPOL_GATES = GATE_KINDS - {"prot"}


@dataclass(frozen=True)
class FamilySpec:
    """A named measurement/noise configuration."""

    name: str
    estimator: EstimatorSpec


def _shots(n_m, noise=None):
    return EstimatorSpec(mode="shots", n_m=n_m, noise=noise)


def family_catalog() -> list[FamilySpec]:
    """The full benchmark catalog: one ideal family, four shot-noise levels,
    and four intensities each of dephasing, depolarizing, T2-limited thermal
    relaxation, and short-T1 thermal relaxation.

    Dephasing (`DP-x%`) attaches to `rz` gates only.  The bundled toy ansatz
    (`ry ry cx prot`) has no `rz`, so there `DP-x%` adds no channel: it is
    `SN-6144` under another name and random stream.
    """
    families = [FamilySpec("ideal", EstimatorSpec(mode="exact"))]
    for n_m in (256, 512, 1024, 6144):
        families.append(FamilySpec(f"SN-{n_m}", _shots(n_m)))
    for pct in (1, 5, 10, 20):
        noise = NoiseModel(
            (NoiseRule(frozenset({"rz"}), "phase_damping", lam=pct / 100.0),)
        )
        families.append(FamilySpec(f"DP-{pct}%", _shots(NOISY_SHOTS, noise)))
    for pct in (1, 5, 10, 20):
        noise = NoiseModel((NoiseRule(_DEPOL_GATES, "depolarizing", p=pct / 100.0),))
        families.append(FamilySpec(f"DEPOL-{pct}%", _shots(NOISY_SHOTS, noise)))
    for t2_us in (70, 80, 180, 380):
        noise = NoiseModel(
            (
                NoiseRule(
                    GATE_KINDS,
                    "thermal_relaxation",
                    t1_ns=(t2_us + 20) * 1000.0,
                    t2_ns=t2_us * 1000.0,
                ),
            )
        )
        families.append(FamilySpec(f"T2={t2_us}us", _shots(NOISY_SHOTS, noise)))
    for t1_ns in (50, 100, 200, 300):
        noise = NoiseModel(
            (
                NoiseRule(
                    GATE_KINDS,
                    "thermal_relaxation",
                    t1_ns=float(t1_ns),
                    t2_ns=float(t1_ns),
                ),
            )
        )
        families.append(FamilySpec(f"TR-T1={t1_ns}ns", _shots(NOISY_SHOTS, noise)))
    names = [f.name for f in families]
    assert len(names) == len(set(names)) == 21
    return families


def catalog_by_name() -> dict[str, FamilySpec]:
    return {f.name: f for f in family_catalog()}


def lookup_family(name: str) -> FamilySpec:
    by_name = catalog_by_name()
    if name not in by_name:
        raise ParameterDomainError(
            f"unknown catalog family {name!r}; known: {', '.join(sorted(by_name))}"
        )
    return by_name[name]
