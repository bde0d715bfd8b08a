"""Pauli-string Hamiltonians, their dense matrix representation, and the
Pauli vector of a state.

Qubit 0 corresponds to the leftmost character of a Pauli string, to the
most significant bit of a computational-basis index and to the most
significant base-4 digit of a Pauli-vector index.

`read_text`, which reads a problem file, lives in `circuits.py`, whose
circuit format loads without numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, ParameterDomainError
from .circuits import read_text

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: A Pauli string's index in a Pauli vector r_P = Tr(P rho) reads its
#: letters as base-4 digits, I, X, Y, Z = 0..3, so r[..., 0] is Tr rho and
#: qubit q's digit is the bit pair 2(n - 1 - q) of the index.
PAULI_DIGITS = {"I": 0, "X": 1, "Y": 2, "Z": 3}

#: Row a maps a qubit's 2x2 block, flattened as 2i + j, to Tr(sigma_a block).
_TRACE_WITH = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


@dataclass(frozen=True)
class PauliSum:
    """Hermitian operator given as a weighted sum of Pauli strings."""

    terms: tuple[tuple[float, str], ...]

    @staticmethod
    def from_terms(terms) -> "PauliSum":
        """Build a PauliSum, merging duplicate strings and validating input."""
        merged: dict[str, float] = {}
        n_qubits = None
        for coeff, string in terms:
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ParameterDomainError(f"non-finite coefficient {coeff}")
            string = string.upper()
            if not string or any(c not in "IXYZ" for c in string):
                raise ParameterDomainError(f"invalid Pauli string {string!r}")
            if n_qubits is None:
                n_qubits = len(string)
            elif len(string) != n_qubits:
                raise DimensionError(
                    f"Pauli string {string!r} has length {len(string)}, expected {n_qubits}"
                )
            merged[string] = merged.get(string, 0.0) + coeff
        if not merged:
            raise ParameterDomainError("PauliSum needs at least one term")
        for string, coeff in merged.items():
            if not math.isfinite(coeff):
                raise ParameterDomainError(f"the coefficients of {string} sum to {coeff}")
        # every energy and every gap between two energies lies within 2·Σ|c|
        bound = 2.0 * sum(abs(c) for c in merged.values())
        if not math.isfinite(bound):
            raise ParameterDomainError(f"the energy bound 2·Σ|c| of the coefficients is {bound}")
        return PauliSum(tuple((c, s) for s, c in merged.items()))

    @property
    def n_qubits(self) -> int:
        return len(self.terms[0][1])

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the operator (qubit 0 most significant)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for coeff, string in self.terms:
            out += coeff * pauli_string_matrix(string)
        return out

    def __iter__(self):
        return iter(self.terms)


def pauli_string_matrix(string: str) -> np.ndarray:
    """Dense matrix of a single Pauli string via Kronecker products."""
    mat = PAULI_1Q[string[0]]
    for c in string[1:]:
        mat = np.kron(mat, PAULI_1Q[c])
    return mat


def parse_hamiltonian(text: str) -> PauliSum:
    """Parse the `<coefficient> <pauli_string>` one-term-per-line format.

    `#` starts a comment; blank lines are ignored.
    """
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParameterDomainError(
                f"line {lineno}: expected '<coefficient> <pauli_string>', got {raw!r}"
            )
        try:
            coeff = float(parts[0])
        except ValueError as exc:
            raise ParameterDomainError(f"line {lineno}: bad coefficient {parts[0]!r}") from exc
        terms.append((coeff, parts[1]))
    return PauliSum.from_terms(terms)


def load_hamiltonian(path) -> PauliSum:
    return parse_hamiltonian(read_text(path, "Hamiltonian"))


def pauli_index(string: str) -> int:
    """The index of a Pauli string in a Pauli vector."""
    index = 0
    for c in string.upper():
        index = 4 * index + PAULI_DIGITS[c]
    return index


def pauli_digits(n_qubits: int, qubit: int) -> np.ndarray:
    """Qubit q's digit (0..3 for I, X, Y, Z) of every Pauli-vector index."""
    return (np.arange(4**n_qubits) >> 2 * (n_qubits - 1 - qubit)) & 3


def to_pauli(rho: np.ndarray) -> np.ndarray:
    """The real Pauli vectors r_P = Tr(P rho) of a (k, d, d) stack of
    Hermitian operators, (k, 4^n): one 2x2 -> 4 transform per qubit."""
    d = rho.shape[-1]
    n = d.bit_length() - 1
    if rho.ndim != 3 or rho.shape[1] != d or d != 2**n:
        raise DimensionError(f"expected a (k, 2^n, 2^n) operator stack, got shape {rho.shape}")
    k = len(rho)
    # axes (k, row bit of qubit 0, column bit of qubit 0, row bit of qubit 1, ...)
    t = rho.reshape(k, *(2,) * (2 * n))
    t = t.transpose(0, *(a for q in range(n) for a in (1 + q, 1 + n + q)))
    t = t.reshape(k, *(4,) * n)
    for q in range(n):
        t = np.moveaxis(np.tensordot(t, _TRACE_WITH, axes=(1 + q, 1)), -1, 1 + q)
    return np.ascontiguousarray(t.real.reshape(k, 4**n))
