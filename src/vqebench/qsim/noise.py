"""Noise models: per-gate channel attachment rules."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterDomainError
from .channels import (
    KrausChannel,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_thermal_relaxation,
)
from .circuits import GATE_KINDS, Gate

#: The parameters each rule kind needs; the others must stay None.
_PARAMS = {
    "phase_damping": ("lam",),
    "depolarizing": ("p",),
    "thermal_relaxation": ("t1_ns", "t2_ns"),
}
#: The gate a new rule builds its channel for, so that a bad parameter fails there.
_ONE_QUBIT_GATE = Gate("x", (0,))


@dataclass(frozen=True)
class NoiseRule:
    """Attach one channel family to a set of gate kinds.

    kind is one of "phase_damping" (param lam), "depolarizing" (param p),
    "thermal_relaxation" (params t1_ns, t2_ns; the channel is rebuilt per
    gate from its duration).  The channel constructors check the parameters'
    ranges.
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
        self.channel_applications(_ONE_QUBIT_GATE)

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
            if gate.kind in rule.gates:
                yield from rule.channel_applications(gate)
