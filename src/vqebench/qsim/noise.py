"""Noise models: per-gate channel attachment rules."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidChannelError, ParameterDomainError
from .channels import (
    KrausChannel,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_thermal_relaxation,
)
from .circuits import GATE_KINDS, Gate

#: The parameters each rule kind takes; the others must stay None.
_PARAMS = {
    "phase_damping": ("lam",),
    "depolarizing": ("p",),
    "thermal_relaxation": ("t1_ns", "t2_ns"),
}


@dataclass(frozen=True)
class NoiseRule:
    """Attach one channel family to a set of gate kinds.

    kind is one of "phase_damping" (param lam), "depolarizing" (param p),
    "thermal_relaxation" (params t1_ns, t2_ns; the channel is rebuilt per
    gate from its duration).
    """

    gate_kinds: frozenset[str]
    kind: str
    lam: float | None = None
    p: float | None = None
    t1_ns: float | None = None
    t2_ns: float | None = None

    def __post_init__(self):
        if not self.gate_kinds or not self.gate_kinds <= GATE_KINDS:
            raise ParameterDomainError(
                f"noise rule gates must be a non-empty subset of {sorted(GATE_KINDS)}, "
                f"got {set(self.gate_kinds)}"
            )
        if self.kind not in _PARAMS:
            raise ParameterDomainError(f"unknown noise rule kind {self.kind!r}")
        unused = [
            name
            for name in ("lam", "p", "t1_ns", "t2_ns")
            if name not in _PARAMS[self.kind] and getattr(self, name) is not None
        ]
        if unused:
            raise ParameterDomainError(f"{self.kind} noise rule takes no {', '.join(unused)}")
        if self.kind == "phase_damping":
            if self.lam is None or not 0.0 <= self.lam <= 1.0:
                raise ParameterDomainError(f"phase damping lambda {self.lam} outside [0, 1]")
        elif self.kind == "depolarizing":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ParameterDomainError(f"depolarizing p {self.p} outside [0, 1]")
        else:
            if self.t1_ns is None or self.t2_ns is None or self.t1_ns <= 0 or self.t2_ns <= 0:
                raise ParameterDomainError("thermal relaxation requires positive T1 and T2")
            if self.t2_ns > 2.0 * self.t1_ns:
                raise InvalidChannelError(f"T2={self.t2_ns} exceeds 2*T1={2 * self.t1_ns}")

    def channel_applications(self, gate: Gate) -> list[tuple[KrausChannel, tuple[int, ...]]]:
        """Channels to apply after `gate`, each with its target qubits.

        Single-qubit channels attach independently to every qubit the gate
        touches; depolarizing uses the gate's arity directly.
        """
        if self.kind == "depolarizing":
            return [(kraus_depolarizing(self.p, arity=len(gate.qubits)), gate.qubits)]
        if self.kind == "phase_damping":
            ch = kraus_phase_damping(self.lam)
        else:
            ch = kraus_thermal_relaxation(gate.duration_ns, self.t1_ns, self.t2_ns)
        return [(ch, (q,)) for q in gate.qubits]


@dataclass(frozen=True)
class NoiseModel:
    rules: tuple[NoiseRule, ...]

    def applications_for(self, gate: Gate):
        for rule in self.rules:
            if gate.kind in rule.gate_kinds:
                yield from rule.channel_applications(gate)
