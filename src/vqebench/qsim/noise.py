"""Noise models: per-gate channel attachment rules."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from ..errors import InvalidChannelError, ParameterDomainError
from .channels import damp, depolarize
from .circuits import GATE_KINDS, Gate

#: The parameters each rule kind needs; the others must stay None.
_PARAMS = {
    "phase_damping": ("lam",),
    "depolarizing": ("p",),
    "thermal_relaxation": ("t1_ns", "t2_ns"),
}


@dataclass(frozen=True)
class NoiseRule:
    """Attach one channel family to a set of gate kinds.

    kind is one of "phase_damping" (param lam in [0, 1]), "depolarizing"
    (param p in [0, 1]), "thermal_relaxation" (params t1_ns, t2_ns > 0 with
    T2 <= 2 T1; the channel follows each gate's duration).  Every check is
    written so that NaN fails it.
    """

    gates: frozenset[str]
    kind: str
    lam: float | None = None
    p: float | None = None
    t1_ns: float | None = None
    t2_ns: float | None = None

    def __post_init__(self):
        if not self.gates or not self.gates <= GATE_KINDS:
            raise ParameterDomainError(
                f"noise rule gates must be a non-empty subset of {sorted(GATE_KINDS)}, "
                f"got {set(self.gates)}"
            )
        if self.kind not in _PARAMS:
            raise ParameterDomainError(f"unknown noise rule kind {self.kind!r}")
        for name in ("lam", "p", "t1_ns", "t2_ns"):
            given = getattr(self, name) is not None
            if given != (name in _PARAMS[self.kind]):
                verb = "takes no" if given else "needs"
                raise ParameterDomainError(f"{self.kind} noise rule {verb} {name}")
        for name in ("lam", "p"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ParameterDomainError(f"{self.kind} {name}={value} outside [0, 1]")
        if self.kind == "thermal_relaxation":
            if not (self.t1_ns > 0 and self.t2_ns > 0):
                raise ParameterDomainError(
                    f"T1={self.t1_ns} and T2={self.t2_ns} must both be positive"
                )
            if not self.t2_ns <= 2.0 * self.t1_ns:
                raise InvalidChannelError(
                    f"T2={self.t2_ns} exceeds 2*T1={2.0 * self.t1_ns}; no physical channel"
                )

    def channels(self, gate: Gate) -> tuple[partial, ...]:
        """The maps rho -> rho to apply after `gate`, in order.

        Single-qubit channels act independently on every qubit the gate
        touches; depolarizing acts on all of the gate's qubits at once.
        """
        if self.kind == "depolarizing":
            return (partial(depolarize, qubits=gate.qubits, p=self.p),)
        if self.kind == "phase_damping":
            gamma, coherence = 0.0, math.sqrt(1.0 - self.lam)
        else:
            gamma = -math.expm1(-gate.duration_ns / self.t1_ns)
            coherence = math.exp(-gate.duration_ns / self.t2_ns)
        return tuple(
            partial(damp, qubit=q, gamma=gamma, coherence=coherence) for q in gate.qubits
        )


@dataclass(frozen=True)
class NoiseModel:
    rules: tuple[NoiseRule, ...]

    def channels(self, gate: Gate) -> tuple[partial, ...]:
        """The maps every rule matching `gate` applies after it, rule by rule."""
        return tuple(
            m for rule in self.rules if gate.kind in rule.gates for m in rule.channels(gate)
        )
