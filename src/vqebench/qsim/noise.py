"""Gate noise as plain data: a family's noise is a tuple of `NoiseRule`s,
() for noiseless, and each rule attaches its channels after every gate
whose kind it names.  `EstimatorSpec` pairs the rules with a shot count.

The channels are Pauli transfer matrices on Pauli vectors r_P = Tr(P rho).
Every catalog channel is diagonal in the Pauli basis, except that amplitude
damping also feeds the string with I at its qubit into the same string with
Z there (Greenbaum, arXiv:1509.02921; Nielsen & Chuang 8.3).

The rules load without numpy, so that `vqebench catalog` does not pay for
it: only `damp` and `depolarize`, which build a channel's table, import
numpy and `pauli.py`.  The gate kinds come from `circuits.py`, which holds
`read_text` for the same reason.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from ..errors import InvalidChannelError, ParameterDomainError, is_count
from .circuits import GATE_KINDS, Gate

if TYPE_CHECKING:
    import numpy as np


class Channel(NamedTuple):
    """r -> s + feed * s[source] with s = scale * r; source and feed are
    None for a diagonal channel."""

    scale: np.ndarray  # (4^n,)
    source: np.ndarray | None  # (4^n,) intp
    feed: np.ndarray | None  # (4^n,), 0 where a string takes no feed


def damp(n_qubits: int, qubit: int, gamma: float, coherence: float) -> Channel:
    """Amplitude damping by gamma toward |0> with the qubit's coherences
    scaled by coherence: X and Y at the qubit scale by coherence, Z by
    1 - gamma, and Z gains gamma times I, which the scaling leaves as it
    is.  Phase damping is gamma = 0, coherence = sqrt(1 - lam); thermal
    relaxation over t is gamma = 1 - e^(-t/T1), coherence = e^(-t/T2)."""
    import numpy as np  # its import costs `catalog`, which builds no table

    from .pauli import pauli_digits

    digits = pauli_digits(n_qubits, qubit)
    scale = np.array([1.0, coherence, coherence, 1.0 - gamma])[digits]
    if not gamma:
        return Channel(scale, None, None)
    source = np.arange(4**n_qubits) & ~(3 << 2 * (n_qubits - 1 - qubit))
    return Channel(scale, source, np.where(digits == 3, gamma, 0.0))


def depolarize(n_qubits: int, qubits, p: float) -> Channel:
    """(1 - p) rho + p Tr_Q(rho) (x) I / 2^k on the k qubits Q: every string
    that is not the identity on Q scales by 1 - p."""
    import numpy as np  # its import costs `catalog`, which builds no table

    from .pauli import pauli_digits

    touched = np.logical_or.reduce([pauli_digits(n_qubits, q) != 0 for q in qubits])
    return Channel(np.where(touched, 1.0 - p, 1.0), None, None)


#: The gate times in ns, on one qubit and on more, that thermal relaxation acts over.
GATE_NS_1Q = 50.0
GATE_NS_MULTIQ = 150.0

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
    T2 <= 2 T1; the channel acts over the gate's time).  Every check is
    written so that NaN fails it.  A context keeps the schedule compiled
    from a rule, so gates must be a frozenset, which cannot change under it.
    """

    gates: frozenset[str]
    kind: str
    lam: float | None = None
    p: float | None = None
    t1_ns: float | None = None
    t2_ns: float | None = None

    def __post_init__(self):
        if not isinstance(self.gates, frozenset):
            raise ParameterDomainError(f"noise rule gates must be a frozenset, got {self.gates!r}")
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

    def channels(self, gate: Gate, n_qubits: int) -> tuple[Channel, ...]:
        """The channels to apply after `gate` in a circuit of n_qubits, in
        order, as Pauli transfer tables; the caller has matched the gate's
        kind to the rule's gates.

        Single-qubit channels act independently on every qubit the gate
        touches; depolarizing acts on all of the gate's qubits at once.
        """
        if self.kind == "depolarizing":
            return (depolarize(n_qubits, gate.qubits, self.p),)
        if self.kind == "phase_damping":
            gamma, coherence = 0.0, math.sqrt(1.0 - self.lam)
        else:
            t = GATE_NS_1Q if len(gate.qubits) == 1 else GATE_NS_MULTIQ
            gamma = -math.expm1(-t / self.t1_ns)
            coherence = math.exp(-t / self.t2_ns)
        return tuple(damp(n_qubits, q, gamma, coherence) for q in gate.qubits)


@dataclass(frozen=True)
class EstimatorSpec:
    """How expectations are measured: exactly when n_m is None, else with
    n_m shots per term; noise is the tuple of rules whose channels state
    preparation applies, () for noiseless.  A context keeps the schedule
    compiled from noise, so anything but a tuple of NoiseRule is rejected
    here."""

    n_m: int | None = None
    noise: tuple[NoiseRule, ...] = ()

    def __post_init__(self):
        if self.n_m is not None and not is_count(self.n_m):
            raise ParameterDomainError(
                f"shot count must be an integer from 1 to 2**63 - 1, got {self.n_m!r}"
            )
        if not (isinstance(self.noise, tuple) and all(isinstance(r, NoiseRule) for r in self.noise)):
            raise ParameterDomainError(f"noise must be a tuple of NoiseRule, got {self.noise!r}")

    @property
    def mode(self) -> str:
        """The estimator kind that n_m implies: "exact" or "shots"."""
        return "exact" if self.n_m is None else "shots"
