"""Gates, parametrized circuits, and the circuit text format."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, ParameterDomainError
from .pauli import PAULI_1Q, pauli_string_matrix

SINGLE_QUBIT_KINDS = frozenset({"x", "y", "z", "h", "rx", "ry", "rz"})
PARAMETRIC_KINDS = frozenset({"rx", "ry", "rz", "prot"})
GATE_KINDS = SINGLE_QUBIT_KINDS | {"cx", "prot"}

DEFAULT_DURATION_1Q_NS = 50.0
DEFAULT_DURATION_MULTIQ_NS = 150.0

_FIXED_UNITARIES = {
    "x": PAULI_1Q["X"],
    "y": PAULI_1Q["Y"],
    "z": PAULI_1Q["Z"],
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param_index: int | None = None
    pauli_string: str | None = None
    duration_ns: float | None = None  # None: the default for the gate's arity

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ParameterDomainError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ParameterDomainError(f"repeated qubit in {self.qubits}")
        if self.kind in PARAMETRIC_KINDS and self.param_index is None:
            raise ParameterDomainError(f"gate {self.kind!r} requires a parameter index")
        if self.kind not in PARAMETRIC_KINDS and self.param_index is not None:
            raise ParameterDomainError(f"gate {self.kind!r} takes no parameter")
        if self.kind == "prot":
            if not self.pauli_string or any(c not in "IXYZ" for c in self.pauli_string.upper()):
                raise ParameterDomainError("prot gate requires a Pauli string")
            if len(self.pauli_string) != len(self.qubits):
                raise ParameterDomainError(
                    "prot Pauli string length must match the number of target qubits"
                )
        elif self.pauli_string is not None:
            raise ParameterDomainError(f"gate {self.kind!r} takes no Pauli string")
        expected_arity = 2 if self.kind == "cx" else (len(self.qubits) if self.kind == "prot" else 1)
        if len(self.qubits) != expected_arity:
            raise ParameterDomainError(
                f"gate {self.kind!r} expects {expected_arity} qubits, got {len(self.qubits)}"
            )
        if self.duration_ns is None:
            default = (
                DEFAULT_DURATION_1Q_NS if len(self.qubits) == 1 else DEFAULT_DURATION_MULTIQ_NS
            )
            object.__setattr__(self, "duration_ns", default)
        elif not 0.0 < self.duration_ns < math.inf:
            raise ParameterDomainError(
                f"gate duration must be positive and finite, got {self.duration_ns!r} ns"
            )

    def generator(self) -> np.ndarray:
        """Pauli generator P of a parametric gate, exp(-i theta/2 P)."""
        string = self.pauli_string if self.kind == "prot" else self.kind[1]
        return pauli_string_matrix(string.upper())

    def unitary(self, theta: float | None = None) -> np.ndarray:
        """Local unitary on the gate's own qubits (tensor order as listed)."""
        if self.kind in _FIXED_UNITARIES:
            return _FIXED_UNITARIES[self.kind].copy()
        if theta is None:
            raise ParameterDomainError(f"gate {self.kind!r} needs a parameter value")
        return rotation(theta, self.generator())


def rotation(theta: float, generator: np.ndarray) -> np.ndarray:
    """exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P for a Pauli string P."""
    half = theta / 2.0
    identity = np.eye(len(generator), dtype=complex)
    return math.cos(half) * identity - 1j * math.sin(half) * generator


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int

    def __post_init__(self):
        used = set()
        for gate in self.gates:
            if any(q >= self.n_qubits for q in gate.qubits):
                raise DimensionError(
                    f"gate {gate.kind!r} addresses qubit outside 0..{self.n_qubits - 1}"
                )
            if gate.param_index is not None:
                if not 0 <= gate.param_index < self.n_params:
                    raise ParameterDomainError(
                        f"parameter index t{gate.param_index} outside 0..{self.n_params - 1}"
                    )
                used.add(gate.param_index)
        if used != set(range(self.n_params)):
            missing = sorted(set(range(self.n_params)) - used)
            raise ParameterDomainError(f"unreferenced parameter indices: {missing}")


def parse_circuit(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the one-gate-per-line circuit format.

    Lines look like `ry 0 t0`, `cx 0 1`, or `prot XXYZ t2 0 1 2 3`.
    `#` starts a comment; blank lines are ignored.  If n_qubits is omitted it
    is inferred from the highest qubit index used.
    """
    gates = []
    max_qubit = -1
    max_param = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "prot":
                pauli = parts[1]
                param = _parse_param(parts[2], lineno)
                qubits = tuple(int(p) for p in parts[3:])
                gate = Gate(kind, qubits, param_index=param, pauli_string=pauli)
            else:
                param = None
                qubit_tokens = parts[1:]
                if qubit_tokens and qubit_tokens[-1].startswith("t"):
                    param = _parse_param(qubit_tokens[-1], lineno)
                    qubit_tokens = qubit_tokens[:-1]
                qubits = tuple(int(p) for p in qubit_tokens)
                gate = Gate(kind, qubits, param_index=param)
        except (IndexError, ValueError) as exc:
            raise ParameterDomainError(f"line {lineno}: cannot parse gate {raw!r}") from exc
        gates.append(gate)
        max_qubit = max(max_qubit, *gate.qubits)
        if gate.param_index is not None:
            max_param = max(max_param, gate.param_index)
    if n_qubits is None:
        n_qubits = max_qubit + 1
    return Circuit(n_qubits=n_qubits, gates=tuple(gates), n_params=max_param + 1)


def _parse_param(token: str, lineno: int) -> int:
    if not token.startswith("t"):
        raise ParameterDomainError(f"line {lineno}: expected parameter token, got {token!r}")
    return int(token[1:])


def load_circuit(path, n_qubits: int | None = None) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read(), n_qubits=n_qubits)
