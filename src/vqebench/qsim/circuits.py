"""Gates, parametrized circuits, and the circuit text format."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, ParameterDomainError
from .pauli import PauliSum, read_text

SINGLE_QUBIT_KINDS = frozenset({"x", "y", "z", "h", "rx", "ry", "rz"})
PARAMETRIC_KINDS = frozenset({"rx", "ry", "rz", "prot"})
GATE_KINDS = SINGLE_QUBIT_KINDS | {"cx", "prot"}

DEFAULT_DURATION_1Q_NS = 50.0
DEFAULT_DURATION_MULTIQ_NS = 150.0

_H = 1 / math.sqrt(2)
# Each fixed gate as Pauli terms on its own qubits, in the order listed.
_FIXED_TERMS = {
    "x": ((1.0, "X"),),
    "y": ((1.0, "Y"),),
    "z": ((1.0, "Z"),),
    "h": ((_H, "X"), (_H, "Z")),
    "cx": ((0.5, "II"), (0.5, "ZI"), (0.5, "IX"), (-0.5, "ZX")),  # control first
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

    def operator(self, n_qubits: int) -> np.ndarray:
        """The gate's 2^n x 2^n operator: a fixed gate's unitary, or a
        rotation's Pauli generator P, the gate being exp(-i theta/2 P)."""
        if any(not 0 <= q < n_qubits for q in self.qubits):
            raise DimensionError(f"gate qubits {self.qubits} outside 0..{n_qubits - 1}")
        if self.kind in PARAMETRIC_KINDS:
            terms = ((1.0, self.pauli_string if self.kind == "prot" else self.kind[1]),)
        else:
            terms = _FIXED_TERMS[self.kind]
        padded = []
        for coeff, local in terms:
            string = ["I"] * n_qubits
            for q, c in zip(self.qubits, local):
                string[q] = c
            padded.append((coeff, "".join(string)))
        return PauliSum.from_terms(padded).to_matrix()


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int

    def __post_init__(self):
        used = set()
        for gate in self.gates:
            if any(not 0 <= q < self.n_qubits for q in gate.qubits):
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
    return parse_circuit(read_text(path, "circuit"), n_qubits=n_qubits)
