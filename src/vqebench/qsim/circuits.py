"""Gates, parametrized circuits, and the circuit text format.

The module imports no numpy, because the noise rules, and so `vqebench
catalog`, import its gate kinds.  For the same reason `read_text`, which
reads Hamiltonian files for `pauli.py` too, lives here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DimensionError, ParameterDomainError, is_integer

#: Each gate kind as the rotations exp(-i theta/2 P) it applies, in order:
#: (P on the gate's qubits, k) turns by theta = k pi/2, or by the gate's
#: parameter when k is None; prot's P is its Pauli string.  A fixed gate's
#: rotations multiply to its unitary up to a global phase: h = R_Y(pi/2)
#: R_Z(pi), and cx (control first) = R_ZI(-pi/2) R_IX(-pi/2) R_ZX(pi/2),
#: whose rotations commute.
_ROTATIONS = {
    "x": (("X", 2),),
    "y": (("Y", 2),),
    "z": (("Z", 2),),
    "h": (("Z", 2), ("Y", 1)),
    "cx": (("ZI", -1), ("IX", -1), ("ZX", 1)),
    "rx": (("X", None),),
    "ry": (("Y", None),),
    "rz": (("Z", None),),
    "prot": ((None, None),),
}
GATE_KINDS = frozenset(_ROTATIONS)
PARAMETRIC_KINDS = frozenset(kind for kind, steps in _ROTATIONS.items() if steps[0][1] is None)

#: How many unreferenced parameter indices an error message lists.
_LISTED = 5


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param_index: int | None = None
    pauli_string: str | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ParameterDomainError(f"unknown gate kind {self.kind!r}")
        if not isinstance(self.qubits, tuple):
            raise ParameterDomainError(f"gate qubits must be a tuple, got {self.qubits!r}")
        if not all(is_integer(q) for q in self.qubits):
            raise ParameterDomainError(f"gate qubits must be integers, got {self.qubits!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ParameterDomainError(f"repeated qubit in {self.qubits}")
        if self.kind in PARAMETRIC_KINDS and self.param_index is None:
            raise ParameterDomainError(f"gate {self.kind!r} requires a parameter index")
        if self.kind not in PARAMETRIC_KINDS and self.param_index is not None:
            raise ParameterDomainError(f"gate {self.kind!r} takes no parameter")
        if self.param_index is not None and not is_integer(self.param_index):
            raise ParameterDomainError(
                f"parameter index must be an integer, got {self.param_index!r}"
            )
        if self.param_index is not None and self.param_index < 0:
            raise ParameterDomainError(f"negative parameter index t{self.param_index}")
        if self.kind == "prot":
            if not (
                isinstance(self.pauli_string, str)
                and self.pauli_string
                and all(c in "IXYZ" for c in self.pauli_string.upper())
            ):
                raise ParameterDomainError("prot gate requires a Pauli string")
            if len(self.pauli_string) != len(self.qubits):
                raise ParameterDomainError(
                    "prot Pauli string length must match the number of target qubits"
                )
        elif self.pauli_string is not None:
            raise ParameterDomainError(f"gate {self.kind!r} takes no Pauli string")
        expected_arity = len(self.rotations()[0][0])
        if len(self.qubits) != expected_arity:
            raise ParameterDomainError(
                f"gate {self.kind!r} expects {expected_arity} qubits, got {len(self.qubits)}"
            )

    def rotations(self) -> tuple[tuple[str, int | None], ...]:
        """The rotations exp(-i theta/2 P) the gate applies, in order, each
        (P on the gate's qubits, k): theta = k pi/2, or the gate's parameter
        when k is None."""
        if self.kind == "prot":
            return ((self.pauli_string.upper(), None),)
        return _ROTATIONS[self.kind]


@dataclass(frozen=True)
class Circuit:
    """A context keeps the schedule compiled from a circuit, so its gates
    and each gate's qubits must be tuples, which cannot change under it."""

    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int = field(init=False)  # 1 + the highest t<k> index, 0 if none

    def __post_init__(self):
        if not is_integer(self.n_qubits):
            raise ParameterDomainError(f"qubit count must be an integer, got {self.n_qubits!r}")
        if self.n_qubits < 0:
            raise ParameterDomainError(f"negative qubit count {self.n_qubits}")
        if not (isinstance(self.gates, tuple) and all(isinstance(g, Gate) for g in self.gates)):
            raise ParameterDomainError(f"circuit gates must be a tuple of Gate, got {self.gates!r}")
        for gate in self.gates:
            if any(not 0 <= q < self.n_qubits for q in gate.qubits):
                raise DimensionError(
                    f"gate {gate.kind!r} addresses qubit outside 0..{self.n_qubits - 1}"
                )
        used = {g.param_index for g in self.gates if g.param_index is not None}
        object.__setattr__(self, "n_params", max(used, default=-1) + 1)
        n_missing = self.n_params - len(used)
        if n_missing:
            # the first few missing indices lie below len(used) + _LISTED
            scan = range(min(self.n_params, len(used) + _LISTED))
            missing = [i for i in scan if i not in used][:_LISTED]
            more = f" and {n_missing - _LISTED} more" if n_missing > _LISTED else ""
            raise ParameterDomainError(f"unreferenced parameter indices: {missing}{more}")


def parse_circuit(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the one-gate-per-line circuit format.

    Lines look like `ry 0 t0`, `cx 0 1`, or `prot XXYZ t2 0 1 2 3`.
    `#` starts a comment; blank lines are ignored.  If n_qubits is omitted it
    is inferred from the highest qubit index used.
    """
    gates = []
    max_qubit = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "prot":
                pauli = parts[1]
                param = _parse_param(parts[2])
                qubits = tuple(int(p) for p in parts[3:])
                gate = Gate(kind, qubits, param_index=param, pauli_string=pauli)
            else:
                param = None
                qubit_tokens = parts[1:]
                if qubit_tokens and qubit_tokens[-1].startswith("t"):
                    param = _parse_param(qubit_tokens[-1])
                    qubit_tokens = qubit_tokens[:-1]
                qubits = tuple(int(p) for p in qubit_tokens)
                gate = Gate(kind, qubits, param_index=param)
        except (IndexError, ValueError) as exc:
            reason = "missing fields" if isinstance(exc, IndexError) else exc
            raise ParameterDomainError(
                f"line {lineno}: cannot parse gate {raw!r}: {reason}"
            ) from exc
        gates.append(gate)
        max_qubit = max(max_qubit, *gate.qubits)
    if n_qubits is None:
        n_qubits = max_qubit + 1
    return Circuit(n_qubits=n_qubits, gates=tuple(gates))


def _parse_param(token: str) -> int:
    index = token[1:]
    if not token.startswith("t") or not index.removeprefix("-").isdecimal():
        raise ParameterDomainError(f"expected a parameter token t<index>, got {token!r}")
    return int(index)


def load_circuit(path, n_qubits: int | None = None) -> Circuit:
    return parse_circuit(read_text(path, "circuit"), n_qubits=n_qubits)


def read_text(path, what: str) -> str:
    """The UTF-8 text of a problem file; bytes that do not decode are a
    ParameterDomainError that names the file, not a UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterDomainError(f"cannot read {what} {path}: {exc}") from exc
