"""Density matrices and operator embedding on qubit subsets."""
from __future__ import annotations

import numpy as np

from ..errors import DimensionError


def basis_state(index: int, n_qubits: int) -> np.ndarray:
    """Density matrix |index><index| in the computational basis."""
    dim = 2 ** n_qubits
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for {n_qubits} qubits")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def n_qubits_of(rho: np.ndarray) -> int:
    """Qubit count of a density matrix or of a (k, d, d) stack of them."""
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def embed_operator(op: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Embed an operator acting on `qubits` into the full 2^n space.

    `op` acts on len(qubits) qubits, its tensor slots ordered as listed.
    """
    k = len(qubits)
    if op.shape != (2 ** k, 2 ** k):
        raise DimensionError(f"operator shape {op.shape} does not match {k} qubits")
    if len(set(qubits)) != k or any(not 0 <= q < n_qubits for q in qubits):
        raise DimensionError(f"bad qubit list {qubits} for {n_qubits} qubits")
    rest = [q for q in range(n_qubits) if q not in qubits]
    full = np.kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    # Axis i of the tensor currently holds (list(qubits)+rest)[i]; permute so
    # that axis q holds qubit q, for rows and columns alike.
    order = list(qubits) + rest
    perm = [order.index(q) for q in range(n_qubits)]
    t = full.reshape((2,) * (2 * n_qubits))
    t = t.transpose(perm + [n_qubits + p for p in perm])
    return np.ascontiguousarray(t.reshape(2 ** n_qubits, 2 ** n_qubits))

