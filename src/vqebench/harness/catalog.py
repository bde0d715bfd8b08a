"""The 21-family noise catalog."""
from __future__ import annotations

import functools
from dataclasses import dataclass

from ..errors import ParameterDomainError
from ..qsim import EstimatorSpec, NoiseRule
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


@functools.cache
def family_catalog() -> tuple[FamilySpec, ...]:
    """The full benchmark catalog: one ideal family, four shot-noise levels,
    and four intensities each of dephasing, depolarizing, T2-limited thermal
    relaxation, and short-T1 thermal relaxation.

    Dephasing (`DP-x%`) attaches to `rz` gates only.  The bundled toy ansatz
    (`ry ry cx prot`) has no `rz`, so there `DP-x%` adds no channel: it is
    `SN-6144` under another name and random stream.

    Thermal relaxation acts over 50 ns after a one-qubit gate and 150 ns
    after `cx` and `prot`: γ = 1 - e^(-t/T1), coherence e^(-t/T2).  So
    `TR-T1=50ns` damps a one-qubit gate by γ 0.632 with coherence 0.368, and
    `cx` and `prot` by γ 0.950; `TR-T1=300ns` by γ 0.154 with coherence 0.846,
    and γ 0.393; `T2=70us` a one-qubit gate by γ 5.6e-4 with coherence
    0.99929.  This is what puts the `TR-T1` noise floors below the ideal
    E0 + E1: both ensemble states relax toward |00>.  Built once per process.
    """
    dephasing = functools.partial(NoiseRule, frozenset({"rz"}), "phase_damping")
    depolarizing = functools.partial(NoiseRule, _DEPOL_GATES, "depolarizing")
    relaxation = functools.partial(NoiseRule, GATE_KINDS, "thermal_relaxation")
    noisy = [
        *((f"DP-{pct}%", dephasing(lam=pct / 100.0)) for pct in (1, 5, 10, 20)),
        *((f"DEPOL-{pct}%", depolarizing(p=pct / 100.0)) for pct in (1, 5, 10, 20)),
        *(
            (f"T2={us}us", relaxation(t1_ns=(us + 20) * 1000.0, t2_ns=us * 1000.0))
            for us in (70, 80, 180, 380)
        ),
        *(
            (f"TR-T1={ns}ns", relaxation(t1_ns=float(ns), t2_ns=float(ns)))
            for ns in (50, 100, 200, 300)
        ),
    ]
    families = [
        FamilySpec("ideal", EstimatorSpec()),
        *(FamilySpec(f"SN-{n_m}", EstimatorSpec(n_m)) for n_m in (256, 512, 1024, 6144)),
        *(FamilySpec(name, EstimatorSpec(NOISY_SHOTS, (rule,))) for name, rule in noisy),
    ]
    names = [f.name for f in families]
    assert len(names) == len(set(names)) == 21
    return tuple(families)


def catalog_by_name() -> dict[str, FamilySpec]:
    return {f.name: f for f in family_catalog()}


def lookup_family(name: str) -> FamilySpec:
    by_name = catalog_by_name()
    if name not in by_name:
        raise ParameterDomainError(
            f"unknown catalog family {name!r}; known: {', '.join(sorted(by_name))}"
        )
    return by_name[name]
